package hist1d

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

func testHist(t testing.TB) *Hist {
	t.Helper()
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i%97) + 0.5
	}
	h, err := BuildHierarchical(xs, 0, 100, 16, 2, 3, 1, noise.NewSource(11))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBinaryRoundTripBitIdentical(t *testing.T) {
	h := testHist(t)
	data, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseHistBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Bins() != h.Bins() || loaded.Epsilon() != h.Epsilon() {
		t.Fatalf("round trip changed shape: bins %d->%d eps %g->%g",
			h.Bins(), loaded.Bins(), h.Epsilon(), loaded.Epsilon())
	}
	for a := 0.0; a < 90; a += 7.3 {
		if x, y := h.Range(a, a+9), loaded.Range(a, a+9); x != y {
			t.Errorf("Range(%g, %g) changed across round trip: %g vs %g", a, a+9, x, y)
		}
	}
	again, err := loaded.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("re-encoding not bit-identical")
	}
}

// TestJSONRoundTrip: the JSON dump, read back with encoding/json,
// carries the release — its range, epsilon and prefix sums bit for bit.
func TestJSONRoundTrip(t *testing.T) {
	h := testHist(t)
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f histFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Format != codec.KindHist1D.JSONFormat() || f.Version != serializeVersion || f.Range != [2]float64{h.lo, h.hi} ||
		f.Epsilon != h.eps || f.Bins != h.Bins() {
		t.Errorf("dump header %+v range %v eps %g bins %d", f.Envelope, f.Range, f.Epsilon, f.Bins)
	}
	if len(f.Prefix) != len(h.prefix) {
		t.Fatalf("dump holds %d prefix sums, want %d", len(f.Prefix), len(h.prefix))
	}
	for i, v := range h.prefix {
		if math.Float64bits(f.Prefix[i]) != math.Float64bits(v) {
			t.Fatalf("prefix %d: dump %v, synopsis %v", i, f.Prefix[i], v)
		}
	}
}

func TestRectQueryProjectsOntoAxis(t *testing.T) {
	h := testHist(t)
	r := geom.Rect{MinX: 10, MinY: -5, MaxX: 40, MaxY: 99}
	if got, want := h.Query(r), h.Range(10, 40); got != want {
		t.Errorf("Query(%v) = %g, want Range(10,40) = %g", r, got, want)
	}
}

// TestExactHistogramRefusesToSerialize: exact counts must never leave
// the process through the release-file door.
func TestExactHistogramRefusesToSerialize(t *testing.T) {
	h, err := Exact([]float64{1, 2, 3}, 0, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendBinary(nil); err == nil {
		t.Error("AppendBinary accepted an exact histogram")
	}
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err == nil {
		t.Error("WriteTo accepted an exact histogram")
	}
}

func TestParseHistBinaryRejectsCorrupt(t *testing.T) {
	valid, err := testHist(t).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly, never panic.
	for n := 0; n < len(valid); n += 7 {
		if _, err := ParseHistBinary(valid[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}

	mutate := func(f func(e *codec.Enc)) []byte {
		e := codec.NewEnc(nil, codec.KindHist1D)
		f(e)
		return e.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"trailing bytes", append(bytes.Clone(valid), 0), "trailing"},
		{"wrong kind", func() []byte {
			e := codec.NewEnc(nil, codec.KindUniform)
			return e.Bytes()
		}(), "kind"},
		{"inverted range", mutate(func(e *codec.Enc) {
			e.F64(10)
			e.F64(0)
			e.F64(1)
			e.U32(1)
			e.F64s([]float64{0, 1})
		}), "invalid range"},
		{"zero epsilon", mutate(func(e *codec.Enc) {
			e.F64(0)
			e.F64(10)
			e.F64(0)
			e.U32(1)
			e.F64s([]float64{0, 1})
		}), "epsilon"},
		{"zero bins", mutate(func(e *codec.Enc) {
			e.F64(0)
			e.F64(10)
			e.F64(1)
			e.U32(0)
			e.F64s([]float64{0})
		}), "bin count"},
		{"section length mismatch", mutate(func(e *codec.Enc) {
			e.F64(0)
			e.F64(10)
			e.F64(1)
			e.U32(3)
			e.F64s([]float64{0, 1})
		}), "float64s"},
		{"nonzero prefix start", mutate(func(e *codec.Enc) {
			e.F64(0)
			e.F64(10)
			e.F64(1)
			e.U32(1)
			e.F64s([]float64{5, 6})
		}), "start at 0"},
		{"non-finite prefix sum", mutate(func(e *codec.Enc) {
			e.F64(0)
			e.F64(10)
			e.F64(1)
			e.U32(2)
			e.F64s([]float64{0, math.NaN(), 3})
		}), "non-finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseHistBinary(tc.data)
			if err == nil {
				t.Fatal("corrupt container accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
