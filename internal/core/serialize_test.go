package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// TestUGSerializeRoundTrip: the JSON dump, read back with encoding/json,
// carries the release — its header and every noisy count bit for bit.
func TestUGSerializeRoundTrip(t *testing.T) {
	dom := geom.MustDomain(-10, 5, 30, 45)
	pts := clusteredPoints(41, 5000, dom)
	orig, err := BuildUniformGrid(pts, dom, 0.7, UGOptions{GridSize: 17}, noise.NewSource(41))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f ugFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Head != codec.NewHead(codec.KindUniform, serializeVersion, dom, 0.7) || f.M != 17 || f.MX != 17 || f.MY != 17 {
		t.Errorf("dump header %+v m=%d %dx%d, want %v eps 0.7 m=17 17x17", f.Head, f.M, f.MX, f.MY, dom)
	}
	want := orig.noisy.Values()
	if len(f.Counts) != len(want) {
		t.Fatalf("dump holds %d counts, want %d", len(f.Counts), len(want))
	}
	for i, v := range want {
		if math.Float64bits(f.Counts[i]) != math.Float64bits(v) {
			t.Fatalf("count %d: dump %v, synopsis %v", i, f.Counts[i], v)
		}
	}
}

// TestAGSerializeRoundTrip: the JSON dump, read back with encoding/json,
// carries the release — its header, every cell's m2 and leaf counts,
// which sum to the cell totals and the release total.
func TestAGSerializeRoundTrip(t *testing.T) {
	dom := geom.MustDomain(0, 0, 20, 20)
	pts := clusteredPoints(42, 8000, dom)
	orig, err := BuildAdaptiveGrid(pts, dom, 1.2, AGOptions{M1: 6, Alpha: 0.4}, noise.NewSource(42))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f agFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Head != codec.NewHead(codec.KindAdaptive, serializeVersion, dom, 1.2) || f.M1 != 6 || f.Alpha != 0.4 {
		t.Errorf("dump header %+v m1=%d alpha=%g", f.Head, f.M1, f.Alpha)
	}
	if len(f.Cells) != 36 {
		t.Fatalf("dump holds %d cells, want 36", len(f.Cells))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	leaves, total := 0, 0.0
	for k, c := range f.Cells {
		if m2, _ := orig.cells[k].Dims(); c.M2 != m2 || len(c.Leaves) != c.M2*c.M2 {
			t.Fatalf("cell %d: m2 %d with %d leaves, synopsis m2 %d", k, c.M2, len(c.Leaves), m2)
		}
		sum := 0.0
		for _, v := range c.Leaves {
			sum += v
		}
		if want := orig.cells[k].Total(); !near(sum, want) {
			t.Errorf("cell %d: leaves sum to %g, cell total %g", k, sum, want)
		}
		leaves += len(c.Leaves)
		total += sum
	}
	if leaves != orig.LeafCells() {
		t.Errorf("dump holds %d leaves, synopsis %d", leaves, orig.LeafCells())
	}
	if !near(total, orig.TotalEstimate()) {
		t.Errorf("dump total %g, TotalEstimate %g", total, orig.TotalEstimate())
	}
}

// TestParseUniformGridRejectsCorruption: each corruption of a valid
// 2x2 UG container is rejected.
func TestParseUniformGridRejectsCorruption(t *testing.T) {
	dom := [4]float64{0, 0, 4, 4}
	counts := []float64{1, 2, 3, 4}
	if _, err := ParseUniformGridBinary(buildRawUG(dom, 1, 2, 2, 2, counts)); err != nil {
		t.Fatalf("valid container rejected: %v", err)
	}
	agBin, err := testAG(t).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	future := buildRawUG(dom, 1, 2, 2, 2, counts)
	binary.LittleEndian.PutUint16(future[len(codec.Magic):], 99)
	cases := []struct {
		name string
		data []byte
	}{
		{"wrong format", agBin},
		{"future version", future},
		{"zero m", buildRawUG(dom, 1, 0, 2, 2, counts)},
		{"counts length mismatch", buildRawUG(dom, 1, 2, 2, 2, []float64{1, 2, 3})},
		{"bad epsilon", buildRawUG(dom, -1, 2, 2, 2, counts)},
		{"bad domain", buildRawUG([4]float64{5, 5, 1, 1}, 1, 2, 2, 2, counts)},
		{"nan count", buildRawUG(dom, 1, 2, 2, 2, []float64{1, math.NaN(), 3, 4})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseUniformGridBinary(tc.data); err == nil {
				t.Error("corrupted synopsis accepted")
			}
		})
	}
}

// TestParseAdaptiveGridRejectsCorruption: each corruption of a valid
// one-cell AG container is rejected.
func TestParseAdaptiveGridRejectsCorruption(t *testing.T) {
	dom := [4]float64{0, 0, 4, 4}
	cell := []float64{0, 0, 0, 1}
	if _, err := ParseAdaptiveGridBinary(buildRawAG(dom, 1, 0.5, 1, cell)); err != nil {
		t.Fatalf("valid container rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"wrong format", buildRawUG(dom, 1, 1, 1, 1, []float64{1})},
		{"bad alpha", buildRawAG(dom, 1, 2, 1, cell)},
		{"cells mismatch", buildRawAG(dom, 1, 0.5, 5, cell)},
		{"not json", []byte("{{{{")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseAdaptiveGridBinary(tc.data); err == nil {
				t.Error("corrupted synopsis accepted")
			}
		})
	}
}

func TestParseUGWrongKind(t *testing.T) {
	dom := geom.MustDomain(0, 0, 4, 4)
	ag, err := BuildAdaptiveGrid(nil, dom, 1, AGOptions{M1: 2}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := ag.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseUniformGridBinary(bin); err == nil || !strings.Contains(err.Error(), "container kind") {
		t.Errorf("AG container parsed as UG: %v", err)
	}
}
