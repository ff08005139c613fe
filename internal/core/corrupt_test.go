package core

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
)

// buildRawAG hand-assembles an AG container so tests can plant field
// values AppendBinary would never emit: each cell is written as the
// given sums section.
func buildRawAG(dom [4]float64, eps, alpha float64, m1 uint32, cells ...[]float64) []byte {
	e := codec.NewEnc(nil, codec.KindAdaptive)
	for _, v := range dom {
		e.F64(v)
	}
	e.F64(eps)
	e.F64(alpha)
	e.U32(m1)
	for _, sums := range cells {
		e.F64s(sums)
	}
	return e.Bytes()
}

// rawAGClaim is a one-cell AG container whose cell section claims n
// float64s but holds only the 40 bytes the decoder's minimum-size
// guard lets through: in the container, a cell's m2 is claimed by its
// section length.
func rawAGClaim(n uint64) []byte {
	// The body header ends at offset 64, already aligned, so the
	// section's length prefix follows it directly.
	data := binary.LittleEndian.AppendUint64(buildRawAG([4]float64{0, 0, 1, 1}, 1, 0.5, 1), n)
	return append(data, make([]byte, 32)...)
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
	zeroCell := []float64{0, 0, 0, 0}
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
			want: "core: parse synopsis: codec: unsupported container version 3 (this build reads version 2)"},

		{name: "ag zero epsilon", ag: true,
			bin:  buildRawAG(unit, 0, 0.5, 1, zeroCell),
			want: "core: invalid epsilon 0"},
		{name: "ag alpha above 1", ag: true,
			bin:  buildRawAG(unit, 1, 1.5, 1, zeroCell),
			want: "core: invalid alpha 1.5"},
		{name: "ag zero alpha", ag: true,
			bin:  buildRawAG(unit, 1, 0, 1, zeroCell),
			want: "core: invalid alpha 0"},
		{name: "ag zero m1", ag: true,
			bin:  buildRawAG(unit, 1, 0.5, 0),
			want: "core: invalid m1 0"},
		{name: "ag m1 over the cap", ag: true,
			bin:  buildRawAG(unit, 1, 0.5, 1<<15),
			want: "core: invalid m1 32768"},
		{name: "ag m1 overflow int64", ag: true,
			bin:  buildRawAG(unit, 1, 0.5, u32Max),
			want: "core: invalid m1 4294967295"},
		// A one-entry table (m2 = 0), with 24 bytes after it so the
		// minimum-size guard lets the cell through to its own check.
		{name: "ag zero m2", ag: true,
			bin:  append(buildRawAG(unit, 1, 0.5, 1, []float64{0}), make([]byte, 24)...),
			want: "core: cell 0: sums section of 1 entries is not an (m2+1)^2 table with m2 >= 1"},
		{name: "ag sums not square", ag: true,
			bin:  buildRawAG(unit, 1, 0.5, 1, []float64{0, 0, 0, 0, 0}),
			want: "core: cell 0: sums section of 5 entries is not an (m2+1)^2 table with m2 >= 1"},
		{name: "ag m2 over the cap", ag: true,
			bin:  rawAGClaim((1<<15 + 1) * (1<<15 + 1)),
			want: "core: cell 0: codec: section length 1073807361 exceeds the 32 bytes left (offset 72)"},
		{name: "ag m2 overflow int64", ag: true,
			bin:  rawAGClaim(math.MaxUint64),
			want: "core: cell 0: codec: section length 18446744073709551615 exceeds the 32 bytes left (offset 72)"},
		{name: "ag non-finite sum", ag: true,
			bin:  buildRawAG(unit, 1, 0.5, 1, []float64{0, 0, 0, math.NaN()}),
			want: "core: cell 0: grid: non-finite prefix sum NaN at index 3"},
		{name: "ag invalid domain", ag: true,
			bin:  buildRawAG(bad, 1, 0.5, 1, zeroCell),
			want: "core: parse synopsis: geom: invalid domain [1,0]x[0,1]: need finite bounds with positive extent"},
		{name: "ag future version", ag: true,
			bin:  withVersion(buildRawAG(unit, 1, 0.5, 1, zeroCell), 3),
			want: "core: parse synopsis: codec: unsupported container version 3 (this build reads version 2)"},
		{name: "ag version 1", ag: true,
			bin:  withVersion(buildRawAG(unit, 1, 0.5, 1, zeroCell), 1),
			want: "core: parse synopsis: codec: container version 1 no longer loads; convert it with a dpgrid that still reads it: dpgrid -load old.dpgrid -save new.dpgrid"},
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
