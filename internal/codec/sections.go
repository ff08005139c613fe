package codec

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// Shared body-section helpers. Every kind's body starts with the same
// envelope fields (domain bounds, epsilon), and the grid-backed kinds
// persist their prefix-sum tables verbatim; centralizing the wire form
// and the raw-section checks here keeps the per-kind codecs down to
// their genuinely kind-specific fields.

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

// DecodeF64s materializes a raw float64 section (as returned by
// Dec.RawF64s).
func DecodeF64s(raw []byte) []float64 {
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = F64At(raw, i)
	}
	return out
}

// CheckFiniteRaw scans an undecoded float64 section for NaN or infinite
// entries without materializing it.
func CheckFiniteRaw(raw []byte) error {
	for i := 0; i < len(raw)/8; i++ {
		if v := F64At(raw, i); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("codec: non-finite value %g at index %d", v, i)
		}
	}
	return nil
}

// CheckPrefixSumsRaw validates an undecoded (mx+1) x (my+1) prefix-sum
// table: every entry finite, first row and column zero.
// grid.PrefixFromSums enforces the same border, so zero-copy views and
// materializing decodes accept exactly the same payloads.
func CheckPrefixSumsRaw(raw []byte, mx, my int) error {
	w := mx + 1
	for i := 0; i < w*(my+1); i++ {
		v := F64At(raw, i)
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
// followed by the sums table as a length-prefixed f64 section.
func (e *Enc) SATSection(sums []float64) {
	e.U16(SATTag)
	e.F64s(sums)
}

// SATSection consumes the optional summed-area trailer of an
// (mx x my)-cell grid body, returning the raw (mx+1)*(my+1)-entry f64
// section, or nil when the container ends before the trailer (the
// section is optional; files written before it existed decode
// unchanged). Structural failures — a wrong tag, a bad length prefix,
// truncation inside the table — set the decoder's sticky error.
// Value-level checks are the caller's, via CheckSATRaw.
func (d *Dec) SATSection(mx, my int) []byte {
	if d.err != nil || d.Remaining() == 0 {
		return nil
	}
	if tag := d.U16(); d.err == nil && tag != SATTag {
		d.fail("summed-area section tag %#04x, want %#04x", tag, SATTag)
	}
	return d.RawF64s((mx + 1) * (my + 1))
}

// CheckSATRaw validates an undecoded summed-area trailer against the
// mx*my cell values it claims to summarize (cellAt returns the
// row-major cell value at index i): the zero border and finiteness of
// CheckPrefixSumsRaw, then every interior entry compared bit-for-bit
// against the value grid.NewPrefix would compute — the recurrence
// sums[(iy+1)*w+ix+1] = sums[iy*w+ix+1] + rowAcc, checked inductively
// against the already-verified row above. A table that passes is
// bitwise identical to the one a reader ignoring the section would
// rebuild, which is what keeps SAT-backed and rebuild-path answers
// bit-identical and the encoding canonical.
func CheckSATRaw(sat []byte, mx, my int, cellAt func(i int) float64) error {
	if err := CheckPrefixSumsRaw(sat, mx, my); err != nil {
		return err
	}
	w := mx + 1
	for iy := 0; iy < my; iy++ {
		var rowAcc float64
		for ix := 0; ix < mx; ix++ {
			rowAcc += cellAt(iy*mx + ix)
			want := F64At(sat, iy*w+ix+1) + rowAcc
			got := F64At(sat, (iy+1)*w+ix+1)
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("codec: summed-area entry (%d,%d) is %g, want %g (inconsistent with cell values)", ix+1, iy+1, got, want)
			}
		}
	}
	return nil
}
