package core

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
)

// rawAGCell is one hand-written AG cell: the m2 a version-1 container
// stores and the sums table both versions store.
type rawAGCell struct {
	m2   uint32
	sums []float64
}

// buildRawAG hand-assembles an AG container so tests can plant field
// values AppendBinary would never emit. Version 1 stores each cell's m2
// as a u32 ahead of an unpadded table, so it can carry an m2 that no
// version-2 table length fixes. Its cells must fill at least the 44
// bytes a version-1 cell takes, or the decoder's minimum-size guard
// rejects the header first.
func buildRawAG(version uint16, dom [4]float64, eps, alpha float64, m1 uint32, cells ...rawAGCell) []byte {
	e := codec.NewEnc(nil, codec.KindAdaptive)
	for _, v := range dom {
		e.F64(v)
	}
	e.F64(eps)
	e.F64(alpha)
	e.U32(m1)
	for _, c := range cells {
		if version != 1 {
			e.F64s(c.sums)
			continue
		}
		e.U32(c.m2)
		e.U64(uint64(len(c.sums)))
		for _, v := range c.sums {
			e.F64(v)
		}
	}
	data := e.Bytes()
	binary.LittleEndian.PutUint16(data[len(codec.Magic):], version)
	return data
}

// TestCorruptReleasesBothEncodings: every corrupt release is rejected
// by its kind's decoder with the exact error text, from 8-byte-aligned
// bytes (the aliasing decode) and from misaligned ones (the copying
// decode) alike. No decode panics or allocates more than its few
// hundred input bytes justify, the sizes that overflow a 64-bit product
// included.
func TestCorruptReleasesBothEncodings(t *testing.T) {
	unit := [4]float64{0, 0, 1, 1}
	bad := [4]float64{1, 0, 0, 1}
	withVersion := func(data []byte, version uint16) []byte {
		binary.LittleEndian.PutUint16(data[len(codec.Magic):], version)
		return data
	}
	zeroCell := rawAGCell{m2: 1, sums: []float64{0, 0, 0, 0}}
	const u32Max = math.MaxUint32

	cases := []struct {
		name string
		ag   bool
		bin  []byte
		want string
	}{
		{name: "ug zero epsilon",
			bin:  buildRawUG(unit, 0, 1, 1, 1, []float64{0}),
			want: "core: invalid epsilon 0"},
		{name: "ug NaN epsilon",
			bin:  buildRawUG(unit, math.NaN(), 1, 1, 1, []float64{0}),
			want: "core: invalid epsilon NaN"},
		{name: "ug zero m",
			bin:  buildRawUG(unit, 1, 0, 1, 1, []float64{0}),
			want: "core: invalid grid size 0"},
		{name: "ug zero mx",
			bin:  buildRawUG(unit, 1, 1, 0, 1, nil),
			want: "core: invalid grid dimensions 0x1"},
		{name: "ug dims over the cap",
			bin:  buildRawUG(unit, 1, 1, 1<<15, 1<<15, nil),
			want: "core: invalid grid dimensions 32768x32768"},
		{name: "ug dims overflow int64",
			bin:  buildRawUG(unit, 1, 1, u32Max, u32Max, nil),
			want: "core: invalid grid dimensions 4294967295x4294967295"},
		{name: "ug non-finite count",
			bin:  buildRawUG(unit, 1, 1, 1, 1, []float64{math.Inf(-1)}),
			want: "core: non-finite count -Inf at index 0"},
		{name: "ug invalid domain",
			bin:  buildRawUG(bad, 1, 1, 1, 1, []float64{0}),
			want: "core: parse synopsis: geom: invalid domain [1,0]x[0,1]: need finite bounds with positive extent"},
		{name: "ug future version",
			bin:  withVersion(buildRawUG(unit, 1, 1, 1, 1, []float64{0}), 3),
			want: "core: parse synopsis: codec: unsupported container version 3 (have 1-2)"},

		{name: "ag zero epsilon", ag: true,
			bin:  buildRawAG(2, unit, 0, 0.5, 1, zeroCell),
			want: "core: invalid epsilon 0"},
		{name: "ag alpha above 1", ag: true,
			bin:  buildRawAG(2, unit, 1, 1.5, 1, zeroCell),
			want: "core: invalid alpha 1.5"},
		{name: "ag zero alpha", ag: true,
			bin:  buildRawAG(2, unit, 1, 0, 1, zeroCell),
			want: "core: invalid alpha 0"},
		{name: "ag zero m1", ag: true,
			bin:  buildRawAG(2, unit, 1, 0.5, 0),
			want: "core: invalid m1 0"},
		{name: "ag m1 over the cap", ag: true,
			bin:  buildRawAG(2, unit, 1, 0.5, 1<<15),
			want: "core: invalid m1 32768"},
		{name: "ag m1 overflow int64", ag: true,
			bin:  buildRawAG(2, unit, 1, 0.5, u32Max),
			want: "core: invalid m1 4294967295"},
		{name: "ag zero m2", ag: true,
			bin:  buildRawAG(1, unit, 1, 0.5, 1, rawAGCell{m2: 0, sums: zeroCell.sums}),
			want: "core: cell 0: invalid m2 0"},
		{name: "ag m2 over the cap", ag: true,
			bin:  buildRawAG(1, unit, 1, 0.5, 1, rawAGCell{m2: 1 << 15, sums: zeroCell.sums}),
			want: "core: cell 0: invalid m2 32768"},
		{name: "ag m2 overflow int64", ag: true,
			bin:  buildRawAG(1, unit, 1, 0.5, 1, rawAGCell{m2: u32Max, sums: zeroCell.sums}),
			want: "core: cell 0: invalid m2 4294967295"},
		{name: "ag non-finite sum", ag: true,
			bin:  buildRawAG(2, unit, 1, 0.5, 1, rawAGCell{sums: []float64{0, 0, 0, math.NaN()}}),
			want: "core: cell 0: grid: non-finite prefix sum NaN at index 3"},
		{name: "ag invalid domain", ag: true,
			bin:  buildRawAG(2, bad, 1, 0.5, 1, zeroCell),
			want: "core: parse synopsis: geom: invalid domain [1,0]x[0,1]: need finite bounds with positive extent"},
		{name: "ag future version", ag: true,
			bin:  buildRawAG(3, unit, 1, 0.5, 1, zeroCell),
			want: "core: parse synopsis: codec: unsupported container version 3 (have 1-2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parse := func(b []byte) error { _, err := ParseUniformGridBinary(b); return err }
			if tc.ag {
				parse = func(b []byte) error { _, err := ParseAdaptiveGridBinary(b); return err }
			}
			check := func(layout string, data []byte) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := parse(data)
				runtime.ReadMemStats(&after)
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s: error %v, want %q", layout, err, tc.want)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("%s: rejecting %d bytes allocated %d bytes", layout, len(data), grew)
				}
			}
			check("aligned", tc.bin)
			check("misaligned", misaligned(tc.bin))
		})
	}
}
