package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// misaligned returns a copy of data starting one byte past an 8-byte
// boundary, so every section that was aligned in data is not.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}

// TestF64sSectionsAligned: every f64 section's length prefix lands at an
// 8-byte offset from the container start — also when the container is
// appended after unrelated bytes — and the padding is zero.
func TestF64sSectionsAligned(t *testing.T) {
	for _, prefix := range []int{0, 3} {
		e := NewEnc(make([]byte, prefix), KindUniform)
		e.U16(7) // body offset 14: the section needs 2 bytes of padding
		at := len(e.Bytes())
		e.F64s([]float64{1, 2})
		e.U32(9) // and the next one 4
		e.F64s([]float64{3})
		data := e.Bytes()[prefix:]
		if got := data[at-prefix : 16]; !bytes.Equal(got, []byte{0, 0}) {
			t.Fatalf("prefix %d: padding %v, want two zero bytes", prefix, got)
		}
		if n := binary.LittleEndian.Uint64(data[16:]); n != 2 {
			t.Fatalf("prefix %d: first section length %d at offset 16, want 2", prefix, n)
		}
		if n := binary.LittleEndian.Uint64(data[48:]); n != 1 {
			t.Fatalf("prefix %d: second section length %d at offset 48, want 1", prefix, n)
		}
		d, _, err := NewDec(data)
		if err != nil {
			t.Fatal(err)
		}
		d.U16()
		a := d.F64s(2)
		d.U32()
		b := d.F64s(1)
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		if a[0] != 1 || a[1] != 2 || b[0] != 3 {
			t.Fatalf("prefix %d: decoded %v %v", prefix, a, b)
		}
	}
}

// TestDecRejectsNonzeroPadding: the padding is canonical zero bytes.
func TestDecRejectsNonzeroPadding(t *testing.T) {
	e := NewEnc(nil, KindUniform)
	e.U16(7)
	e.F64s([]float64{1})
	data := e.Bytes()
	data[15] = 1
	d, _, err := NewDec(data)
	if err != nil {
		t.Fatal(err)
	}
	d.U16()
	if d.F64s(1) != nil || d.Err() == nil || !strings.Contains(d.Err().Error(), "padding") {
		t.Fatalf("nonzero padding accepted (err %v)", d.Err())
	}
}

// TestF64sAliasOrCopy: an aligned section on a little-endian host is
// the container's own bytes (a write through the result shows in
// them); a misaligned one is a copy with the same values.
func TestF64sAliasOrCopy(t *testing.T) {
	want := []float64{0.5, -1, math.MaxFloat64}
	e := NewEnc(nil, KindUniform)
	e.F64s(want)
	aligned := e.Bytes()
	for _, tc := range []struct {
		name  string
		data  []byte
		alias bool
	}{
		{"aligned", aligned, littleEndian},
		{"misaligned", misaligned(aligned), false},
	} {
		d, _, err := NewDec(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		vs := d.F64s(len(want))
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(vs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d = %v, want %v", tc.name, i, vs[i], want[i])
			}
		}
		if cap(vs) != len(vs) {
			t.Errorf("%s: cap %d != len %d: appends could overwrite the container", tc.name, cap(vs), len(vs))
		}
		before := bytes.Clone(tc.data)
		vs[0] = 42
		if aliased := !bytes.Equal(before, tc.data); aliased != tc.alias {
			t.Errorf("%s: aliased = %v, want %v", tc.name, aliased, tc.alias)
		}
	}
}
