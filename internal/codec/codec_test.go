package codec

import (
	"math"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindUniform, KindAdaptive, KindSharded} {
		e := NewEnc(nil, kind)
		e.U32(7)
		data := e.Bytes()
		if !Detect(data) {
			t.Fatalf("%v: Detect = false on a fresh container", kind)
		}
		d, got, err := NewDec(data)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got != kind {
			t.Fatalf("kind = %v, want %v", got, kind)
		}
		if v := d.U32(); v != 7 {
			t.Fatalf("body U32 = %d, want 7", v)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDetectRejectsJSONAndShort(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("{"), []byte(`{"format":"dpgrid/uniform-grid"}`), []byte("dpgridv"), []byte("DPGRIDV2")} {
		if Detect(data) {
			t.Errorf("Detect(%q) = true", data)
		}
	}
}

func TestNewDecRejectsBadHeaders(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":    []byte("notmagicxxxx"),
		"truncated":    []byte(Magic + "\x01"),
		"bad version":  NewEnc(nil, KindUniform).Bytes()[:0:0],
		"kind zero":    NewEnc(nil, KindInvalid).Bytes(),
		"kind unknown": NewEnc(nil, Kind(99)).Bytes(),
	}
	// Corrupt the version bytes for the "bad version" case.
	v := NewEnc(nil, KindUniform).Bytes()
	v[len(Magic)] = 0xFF
	cases["bad version"] = v
	for name, data := range cases {
		if _, _, err := NewDec(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	e := NewEnc(nil, KindUniform)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(1 << 60)
	e.F64(-math.Pi)
	e.F64s([]float64{1.5, -2.5, math.Inf(1)})
	e.Raw([]byte("tail"))

	d, _, err := NewDec(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.F64(); v != -math.Pi {
		t.Errorf("F64 = %g", v)
	}
	vs := d.F64s(3)
	if len(vs) != 3 || vs[0] != 1.5 || vs[1] != -2.5 || !math.IsInf(vs[2], 1) {
		t.Errorf("F64s = %v", vs)
	}
	if got := string(d.Raw(4)); got != "tail" {
		t.Errorf("Raw = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecStickyError(t *testing.T) {
	e := NewEnc(nil, KindAdaptive)
	e.U16(1)
	d, _, err := NewDec(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d.U16()
	if d.U64() != 0 {
		t.Error("read past end returned nonzero")
	}
	if d.Err() == nil {
		t.Fatal("no error after reading past the end")
	}
	first := d.Err()
	d.U32()
	if d.Err() != first {
		t.Error("sticky error replaced by a later one")
	}
	if d.Finish() == nil {
		t.Error("Finish ignored the sticky error")
	}
}

// TestLenBombGuard: a length prefix claiming more elements than the
// file has bytes must fail before any allocation is attempted.
func TestLenBombGuard(t *testing.T) {
	e := NewEnc(nil, KindUniform)
	e.Align()
	e.U64(1 << 50) // section claims a petabyte of floats
	d, _, err := NewDec(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if vs := d.F64s(4); vs != nil {
		t.Fatalf("bomb section materialized %d elements", len(vs))
	}
	if d.Err() == nil {
		t.Fatal("bomb length accepted")
	}
}

func TestF64sCountMismatch(t *testing.T) {
	e := NewEnc(nil, KindUniform)
	e.F64s([]float64{1, 2, 3})
	d, _, err := NewDec(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.F64s(4) != nil || d.Err() == nil {
		t.Fatal("count mismatch accepted")
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	e := NewEnc(nil, KindUniform)
	e.U32(1)
	e.Raw([]byte{0xFF})
	d, _, err := NewDec(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d.U32()
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Finish = %v, want trailing-bytes error", err)
	}
}

func TestKindString(t *testing.T) {
	if KindSharded.String() != "sharded" || Kind(42).String() == "" {
		t.Error("Kind.String misbehaved")
	}
}

// TestKindTable pins every kind's wire identity: its name, its JSON
// format tag and whether it can be a sharded tile. The table is
// contiguous, so every kind from 1 to maxKind is known.
func TestKindTable(t *testing.T) {
	want := []struct {
		kind       Kind
		name       string
		format     string
		embeddable bool
	}{
		{KindUniform, "uniform-grid", "dpgrid/uniform-grid", true},
		{KindAdaptive, "adaptive-grid", "dpgrid/adaptive-grid", true},
		{KindSharded, "sharded", "dpgrid/sharded", false},
		{KindHierarchy, "hierarchy", "dpgrid/hierarchy", true},
		{KindKDTree, "kd-tree", "dpgrid/kdtree", true},
		{KindPrivlet, "privlet", "dpgrid/privlet", true},
		{KindHist1D, "hist1d", "dpgrid/hist1d", false},
	}
	if int(maxKind) != len(want) {
		t.Fatalf("maxKind = %d, want %d", maxKind, len(want))
	}
	for i, w := range want {
		if w.kind != Kind(i+1) {
			t.Fatalf("row %d holds kind %d", i, w.kind)
		}
		if got := w.kind.String(); got != w.name {
			t.Errorf("kind %d: String = %q, want %q", w.kind, got, w.name)
		}
		if got := w.kind.JSONFormat(); got != w.format {
			t.Errorf("kind %d: JSONFormat = %q, want %q", w.kind, got, w.format)
		}
		if got := w.kind.Embeddable(); got != w.embeddable {
			t.Errorf("kind %d: Embeddable = %v, want %v", w.kind, got, w.embeddable)
		}
	}
	for _, k := range []Kind{KindInvalid, maxKind + 1, Kind(4000)} {
		if k.JSONFormat() != "" || k.Embeddable() {
			t.Errorf("unknown kind %d has an identity", k)
		}
		if got, want := k.String(), "kind("; !strings.HasPrefix(got, want) {
			t.Errorf("unknown kind %d: String = %q", k, got)
		}
	}
}

// TestNewDecUnknownKindErrors pins the corrupt-vs-newer-writer split:
// a kind beyond everything this build knows gets the upgrade hint, kind
// 0 reads as corruption.
func TestNewDecUnknownKindErrors(t *testing.T) {
	_, _, err := NewDec(NewEnc(nil, KindInvalid).Bytes())
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("kind 0: err = %v, want corrupt-container error", err)
	}
	for _, k := range []Kind{Kind(8), Kind(4000)} {
		_, _, err = NewDec(NewEnc(nil, k).Bytes())
		if err == nil || !strings.Contains(err.Error(), "upgrade") {
			t.Errorf("kind %d: err = %v, want newer-writer upgrade error", k, err)
		}
	}
}

func TestSectionHelpers(t *testing.T) {
	dom, err := geom.NewDomain(-1, -2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnc(nil, KindUniform)
	e.Domain(dom)
	d, _, err := NewDec(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Domain()
	if err != nil {
		t.Fatal(err)
	}
	if got != dom {
		t.Fatalf("domain round trip = %v, want %v", got, dom)
	}

	sums := []float64{0, 0, 0, 1} // 1x1 prefix table
	e2 := NewEnc(nil, KindUniform)
	e2.F64s(sums)
	d2, _, _ := NewDec(e2.Bytes())
	vs := d2.F64s(4)
	if len(vs) != 4 || vs[3] != 1 {
		t.Fatalf("F64s = %v", vs)
	}
}
