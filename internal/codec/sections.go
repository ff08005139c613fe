package codec

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// Shared body-section helpers. Every kind's body starts with the same
// envelope fields (domain bounds, epsilon), in the container and in the
// JSON dump, and the grid-backed kinds persist their prefix-sum tables
// verbatim; centralizing the wire form here keeps the per-kind codecs
// down to their genuinely kind-specific fields. The tables' value checks live
// with the table, in internal/grid.

// Head is the opening of every JSON dump: the kind's format tag, the
// version of its JSON layout, the domain bounds and the release
// epsilon, in that order. A kind's file struct embeds it first.
type Head struct {
	Format  string     `json:"format"`
	Version int        `json:"version"`
	Domain  [4]float64 `json:"domain"` // minX, minY, maxX, maxY
	Epsilon float64    `json:"epsilon"`
}

// NewHead returns the head an encoder writes for a release of kind
// over dom.
func NewHead(kind Kind, version int, dom geom.Domain, eps float64) Head {
	return Head{
		Format:  kind.JSONFormat(),
		Version: version,
		Domain:  [4]float64{dom.MinX, dom.MinY, dom.MaxX, dom.MaxY},
		Epsilon: eps,
	}
}

// Domain appends a domain's four bounds as float64s — the shared wire
// form every container kind uses for domains.
func (e *Enc) Domain(dom geom.Domain) {
	e.F64(dom.MinX)
	e.F64(dom.MinY)
	e.F64(dom.MaxX)
	e.F64(dom.MaxY)
}

// OpenHead validates a container's framing, as NewDec does, and that
// it holds a release of kind want, then reads and checks the domain and
// release epsilon every body opens with (the domain as Dec.Domain does,
// and that epsilon is positive). It returns both with the decoder
// positioned after them. Errors start with pkg.
func OpenHead(pkg string, data []byte, want Kind) (*Dec, geom.Domain, float64, error) {
	d, kind, err := NewDec(data)
	if err != nil {
		return nil, geom.Domain{}, 0, fmt.Errorf("%s: parse synopsis: %w", pkg, err)
	}
	if kind != want {
		return nil, geom.Domain{}, 0, fmt.Errorf("%s: container kind %v is not %v", pkg, kind, want)
	}
	dom, err := d.Domain()
	eps := d.F64()
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return nil, geom.Domain{}, 0, fmt.Errorf("%s: parse synopsis: %w", pkg, err)
	}
	if !(eps > 0) {
		return nil, geom.Domain{}, 0, fmt.Errorf("%s: invalid epsilon %g", pkg, eps)
	}
	return d, dom, eps, nil
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
// error. Value-level checks are the caller's: grid.AdoptPrefix checks
// the table's border and finiteness (grid.SATFromSums) and compares it
// bit for bit with the cells it summarizes (grid.SAT.CheckCells).
func (d *Dec) SATSection(mx, my int) []float64 {
	if d.err != nil || d.Remaining() == 0 {
		return nil
	}
	if tag := d.U16(); d.err == nil && tag != SATTag {
		d.fail("summed-area section tag %#04x, want %#04x", tag, SATTag)
	}
	return d.F64s((mx + 1) * (my + 1))
}
