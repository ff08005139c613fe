package codec

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// Shared body-section helpers. Every kind's body starts with the same
// envelope fields (domain bounds, epsilon), and the grid-backed kinds
// persist their prefix-sum tables verbatim; centralizing the wire form
// and the section checks here keeps the per-kind codecs down to their
// genuinely kind-specific fields.

// Domain appends a domain's four bounds as float64s — the shared wire
// form every container kind uses for domains.
func (e *Enc) Domain(dom geom.Domain) {
	e.F64(dom.MinX)
	e.F64(dom.MinY)
	e.F64(dom.MaxX)
	e.F64(dom.MaxY)
}

// Domain reads and validates the four-bound wire form Enc.Domain
// writes.
func (d *Dec) Domain() (geom.Domain, error) {
	minX, minY := d.F64(), d.F64()
	maxX, maxY := d.F64(), d.F64()
	if err := d.Err(); err != nil {
		return geom.Domain{}, err
	}
	return geom.NewDomain(minX, minY, maxX, maxY)
}

// CheckPrefixSums validates a decoded (mx+1) x (my+1) prefix-sum table:
// every entry finite, first row and column zero. grid.PrefixFromSums
// enforces the same border; checking it here as well gives every kind
// one error wording for a bad table.
func CheckPrefixSums(sums []float64, mx, my int) error {
	w := mx + 1
	for i, v := range sums[:w*(my+1)] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("codec: non-finite prefix sum %g at index %d", v, i)
		}
		if (i < w || i%w == 0) && v != 0 {
			return fmt.Errorf("codec: prefix-sum border entry %d is %g, want 0", i, v)
		}
	}
	return nil
}

// SATTag marks the optional summed-area-table trailer a grid-backed
// kind may append after its body: the u16 tag, then a length-prefixed
// f64 section holding the (mx+1)*(my+1) prefix-sum table of the kind's
// cell values. The tag's little-endian bytes render as ASCII "ST".
const SATTag uint16 = 0x5453

// SATSection appends the summed-area trailer: the SATTag marker
// followed by the sums table as an aligned, length-prefixed f64
// section.
func (e *Enc) SATSection(sums []float64) {
	e.U16(SATTag)
	e.F64s(sums)
}

// SATSection consumes the optional summed-area trailer of an
// (mx x my)-cell grid body, returning the (mx+1)*(my+1)-entry table, or
// nil when the container ends before the trailer (the section is
// optional; files written before it existed decode unchanged).
// Structural failures — a wrong tag, nonzero padding, a bad length
// prefix, truncation inside the table — set the decoder's sticky
// error. Value-level checks are the caller's, via CheckSAT.
func (d *Dec) SATSection(mx, my int) []float64 {
	if d.err != nil || d.Remaining() == 0 {
		return nil
	}
	if tag := d.U16(); d.err == nil && tag != SATTag {
		d.fail("summed-area section tag %#04x, want %#04x", tag, SATTag)
	}
	return d.F64s((mx + 1) * (my + 1))
}

// CheckSAT validates a decoded summed-area trailer against the mx*my
// row-major cell values it claims to summarize: the zero border and
// finiteness of CheckPrefixSums, then every interior entry compared
// bit-for-bit against the value grid.NewPrefix would compute — the
// recurrence sums[(iy+1)*w+ix+1] = sums[iy*w+ix+1] + rowAcc, checked
// inductively against the already-verified row above. A table that
// passes is bitwise identical to the one a reader ignoring the section
// would rebuild, which is what keeps SAT-backed and rebuild-path
// answers bit-identical and the encoding canonical.
func CheckSAT(sat, cells []float64, mx, my int) error {
	if err := CheckPrefixSums(sat, mx, my); err != nil {
		return err
	}
	w := mx + 1
	for iy := 0; iy < my; iy++ {
		var rowAcc float64
		for ix := 0; ix < mx; ix++ {
			rowAcc += cells[iy*mx+ix]
			want := sat[iy*w+ix+1] + rowAcc
			got := sat[(iy+1)*w+ix+1]
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("codec: summed-area entry (%d,%d) is %g, want %g (inconsistent with cell values)", ix+1, iy+1, got, want)
			}
		}
	}
	return nil
}
