package wavelet

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pool"
)

func buildTestPrivlet(t *testing.T) *Privlet {
	t.Helper()
	dom := geom.MustDomain(0, 0, 10, 10)
	rng := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	// Non-power-of-two m so the derived padded size is exercised.
	w, err := BuildPrivlet(pts, dom, 1, Options{GridSize: 6}, noise.NewSource(11))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPrivletBinaryRoundTrip(t *testing.T) {
	w := buildTestPrivlet(t)
	data, err := w.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrivletBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	re, err := got.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Fatal("binary round trip not bit-identical")
	}
	if got.GridSize() != w.GridSize() || got.PaddedSize() != w.PaddedSize() {
		t.Fatalf("shape changed: m=%d padded=%d", got.GridSize(), got.PaddedSize())
	}
	r := geom.Rect{MinX: 1, MinY: 2, MaxX: 7, MaxY: 9}
	if got.Query(r) != w.Query(r) {
		t.Fatal("answers changed across round trip")
	}

	if got.Domain() != w.Domain() || got.Epsilon() != w.Epsilon() {
		t.Fatalf("envelope changed across round trip: %v/%g", got.Domain(), got.Epsilon())
	}
}

// TestPrivletJSONRoundTrip: the JSON dump, read back with
// encoding/json, carries the release — its header and prefix sums bit
// for bit.
func TestPrivletJSONRoundTrip(t *testing.T) {
	w := buildTestPrivlet(t)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f privletFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Head != codec.NewHead(codec.KindPrivlet, serializeVersion, w.Domain(), w.Epsilon()) || f.GridSize != w.m {
		t.Errorf("dump header %+v grid %d, want grid %d", f.Head, f.GridSize, w.m)
	}
	want := w.prefix.Sums()
	if len(f.Sums) != len(want) {
		t.Fatalf("dump holds %d sums, want %d", len(f.Sums), len(want))
	}
	for i, v := range want {
		if math.Float64bits(f.Sums[i]) != math.Float64bits(v) {
			t.Fatalf("sum %d: dump %v, synopsis %v", i, f.Sums[i], v)
		}
	}
}

func TestPrivletBinaryRejectsCorruption(t *testing.T) {
	w := buildTestPrivlet(t)
	data, err := w.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 8, 12, len(data) / 2, len(data) - 1} {
			if _, err := ParsePrivletBinary(data[:n]); err == nil {
				t.Errorf("accepted %d-byte prefix", n)
			}
		}
	})
	t.Run("oversized grid", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// grid size u32 follows header (12) + domain (32) + epsilon (8).
		bad[52], bad[53] = 0xff, 0xff
		if _, err := ParsePrivletBinary(bad); err == nil {
			t.Error("accepted grid size beyond the build cap")
		}
	})
	t.Run("border violation", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// First sum entry: header 12 + domain 32 + eps 8 + m 4 + length 8.
		bad[64] = 1
		if _, err := ParsePrivletBinary(bad); err == nil || !strings.Contains(err.Error(), "border") {
			t.Errorf("border violation: err = %v", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		other := codec.NewEnc(nil, codec.KindAdaptive).Bytes()
		if _, err := ParsePrivletBinary(other); err == nil {
			t.Error("accepted a non-privlet container")
		}
	})
}

func TestPrivletQueryBatchMatchesQuery(t *testing.T) {
	w := buildTestPrivlet(t)
	rng := rand.New(rand.NewSource(3))
	rs := make([]geom.Rect, 64)
	for i := range rs {
		x, y := rng.Float64()*9, rng.Float64()*9
		rs[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64(), MaxY: y + rng.Float64()}
	}
	got := pool.Map(rs, 0, w.Query)
	if len(got) != len(rs) {
		t.Fatalf("got %d answers for %d queries", len(got), len(rs))
	}
	for i, r := range rs {
		if got[i] != w.Query(r) {
			t.Fatalf("batch answer %d = %g, want %g", i, got[i], w.Query(r))
		}
	}
}
