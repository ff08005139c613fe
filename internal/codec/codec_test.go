package codec

import (
	"math"
	"strings"
	"testing"
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
