package codec

import (
	"encoding/binary"
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

// headerWith is a bare container header with its version and kind set.
func headerWith(version uint16, kind Kind) []byte {
	data := NewEnc(nil, kind).Bytes()
	binary.LittleEndian.PutUint16(data[len(Magic):], version)
	return data
}

type badHeader struct {
	name string
	data []byte
	want string
}

// checkNewDecRejects asserts that NewDec refuses each header with an
// error containing its want text and returns no decoder or kind with it.
func checkNewDecRejects(t *testing.T, cases []badHeader) {
	t.Helper()
	for _, tc := range cases {
		d, kind, err := NewDec(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
		if d != nil || kind != KindInvalid {
			t.Errorf("%s: returned a decoder or kind %v with its error", tc.name, kind)
		}
	}
}

// TestNewDecRejectsBadHeaders pins the framing NewDec refuses and the
// error each one gets; version 1 gets the conversion command.
func TestNewDecRejectsBadHeaders(t *testing.T) {
	checkNewDecRejects(t, []badHeader{
		{"bad magic", []byte("notmagicxxxx"), "not a dpgridv2 container"},
		{"truncated", []byte(Magic + "\x01"), "truncated"},
		{"version 0", headerWith(0, KindUniform), "unsupported container version 0"},
		{"version 1", headerWith(1, KindUniform), errVersion1.Error()},
		{"version 3", headerWith(3, KindUniform), "unsupported container version 3"},
		{"version 0xffff", headerWith(0xffff, KindUniform), "unsupported container version 65535"},
	})
}

// TestNewDecUnknownKindErrors pins the kinds NewDec refuses: kind 0
// reads as corruption, the retired kind 7 says so, and a kind beyond
// everything this build knows gets the upgrade hint.
func TestNewDecUnknownKindErrors(t *testing.T) {
	checkNewDecRejects(t, []badHeader{
		{"kind 0", headerWith(Version, KindInvalid), "unknown synopsis kind 0 (corrupt container)"},
		{"kind 7", headerWith(Version, kindHist1D), "synopsis kind 7 (hist1d) is retired"},
		{"kind 8", headerWith(Version, Kind(8)), "upgrade dpgrid"},
		{"kind 4000", headerWith(Version, Kind(4000)), "upgrade dpgrid"},
	})
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
// contiguous, so every kind from 1 to maxKind is known; the retired
// kind 7 keeps its name and nothing else.
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
		{kindHist1D, "hist1d", "", false},
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
