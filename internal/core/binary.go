package core

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Binary (dpgridv2) serialization of UG and AG synopses: the one
// encoding that loads (the JSON in serialize.go is a write-only dump).
// Each decoder checks its header before any section is read or sized,
// bounding sizes per axis before any product is taken so a hostile size
// cannot wrap past the cap, and then checks the tables (lengths, finite
// counts, valid prefix sums) as it assembles the synopsis. A corrupted
// or hand-edited file fails loudly instead of answering garbage.
//
// Layouts (after the codec container header; all little endian; every
// f64 section is aligned — see codec.Enc.F64s):
//
//	UG:  domain (4 f64) | epsilon (f64) | m, mx, my (u32) |
//	     counts (length-prefixed f64 section, mx*my row-major) |
//	     SAT trailer (optional; see below)
//	AG:  domain (4 f64) | epsilon (f64) | alpha (f64) | m1 (u32) |
//	     m1*m1 cells, each: prefix sums (length-prefixed f64 section,
//	     (m2+1)^2 row-major; the length fixes m2) |
//	     SAT trailer (optional; see below)
//
// A cell stores no m2 field: the section length fixes it, which is also
// what keeps consecutive cell sections 8-byte aligned with no padding.
//
// AG cells persist the prefix-sum table rather than the leaf counts:
// the table is the synopsis's exact in-memory query structure, so
// encode/decode never recompute sums — round trips are bit-identical,
// and decoding adopts each table where it lies in the container bytes,
// with no O(cells) prefix rebuild. (Deriving leaves from sums and
// re-summing on load would lose bit-identity to float rounding.)
//
// The SAT trailer (codec.SATTag + a length-prefixed f64 section) is the
// top-level summed-area table: for UG the (mx+1)*(my+1) prefix sums of
// the counts section, for AG the (m1+1)^2 prefix sums of the per-cell
// table totals (each cell table's last entry) — the in-memory level-1
// table itself, built or decoded. Decoders verify the trailer
// bit-for-bit against the body (grid.AdoptPrefix), so a SAT-backed decode
// answers identically to a reader that ignores the section and
// rebuilds, and re-encoding reproduces the container byte-for-byte.
// Files written before the trailer existed decode unchanged.
//
// Decoded grids alias the container: codec.Dec.F64s returns each f64
// section in place where the host allows it, so the bytes passed to the
// parsers must stay immutable and alive for the synopsis's lifetime.

// ContainerKind reports the synopsis's container kind.
func (u *UniformGrid) ContainerKind() codec.Kind { return codec.KindUniform }

// ContainerKind reports the synopsis's container kind.
func (a *AdaptiveGrid) ContainerKind() codec.Kind { return codec.KindAdaptive }

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (u *UniformGrid) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindUniform)
	e.Domain(u.dom)
	e.F64(u.eps)
	e.U32(uint32(u.m))
	e.U32(uint32(u.mx))
	e.U32(uint32(u.my))
	e.F64s(u.noisy.Values())
	// The stored SAT is the in-memory prefix table, which NewPrefix
	// built from the very counts written above — so the decoder's
	// bitwise consistency check always passes on our own output.
	e.SATSection(u.prefix.Sums())
	return e.Bytes(), nil
}

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (a *AdaptiveGrid) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindAdaptive)
	e.Domain(a.dom)
	e.F64(a.eps)
	e.F64(a.alpha)
	e.U32(uint32(a.m1))
	for k := range a.cells {
		e.F64s(a.cells[k].Sums())
	}
	e.SATSection(a.level1.Sums())
	return e.Bytes(), nil
}

// ParseUniformGridBinary deserializes a UG dpgridv2 container: the
// header is checked before the counts section is read, and a stored SAT
// must match the counts bit for bit. The counts and the adopted SAT
// alias data (see the layout comment above).
func ParseUniformGridBinary(data []byte) (*UniformGrid, error) {
	d, dom, eps, err := codec.OpenHead("core", data, codec.KindUniform)
	if err != nil {
		return nil, err
	}
	m, mx, my := d.Int32(), d.Int32(), d.Int32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	if m < 1 || m > grid.MaxCells {
		return nil, fmt.Errorf("core: invalid grid size %d", m)
	}
	if !grid.Fits(mx, my) {
		return nil, fmt.Errorf("core: invalid grid dimensions %dx%d", mx, my)
	}
	vals := d.F64s(mx * my)
	sat := d.SATSection(mx, my)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	counts, err := grid.FromValues(dom, mx, my, vals)
	if err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite count %g at index %d", v, i)
		}
	}
	// A stored table verified bit-identical to the one NewPrefix would
	// build answers and re-encodes identically; adopting it skips the
	// rebuild.
	prefix, err := grid.AdoptPrefix(counts, sat)
	if err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	return &UniformGrid{
		dom:       dom,
		eps:       eps,
		m:         m,
		mx:        mx,
		my:        my,
		noisy:     counts,
		prefix:    prefix,
		satBacked: sat != nil,
	}, nil
}

// ParseAdaptiveGridBinary deserializes an AG dpgridv2 container: the
// header is checked before any cell is read, each cell's sums table as
// it is read, for finiteness and the zero border every NewPrefix-built
// table has, and a stored level-1 SAT bit for bit against the cell
// totals it summarizes. The cell tables and the adopted SAT alias data
// (see the layout comment above).
func ParseAdaptiveGridBinary(data []byte) (*AdaptiveGrid, error) {
	d, dom, eps, err := codec.OpenHead("core", data, codec.KindAdaptive)
	if err != nil {
		return nil, err
	}
	alpha, m1 := d.F64(), d.Int32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("core: invalid alpha %g", alpha)
	}
	if !grid.Fits(m1, m1) {
		return nil, fmt.Errorf("core: invalid m1 %d", m1)
	}
	n := m1 * m1
	// Every encoded cell occupies at least 40 bytes (a u64 length prefix
	// and a minimum 2x2 sums table), so an m1 whose cells cannot fit in
	// the remaining payload is corrupt. Checking before the allocations
	// below keeps a hostile header from demanding gigabytes for a claim
	// the file's own size refutes.
	const minCellBytes = 8 + 4*8
	if n > d.Remaining()/minCellBytes {
		return nil, fmt.Errorf("core: m1 %d demands %d cells but only %d bytes remain", m1, n, d.Remaining())
	}
	a := &AdaptiveGrid{
		dom:      dom,
		eps:      eps,
		alpha:    alpha,
		m1:       m1,
		cells:    make([]grid.Prefix, n),
		maxM2:    1,
		epsLevel: [2]float64{alpha * eps, (1 - alpha) * eps},
	}
	for k := 0; k < n; k++ {
		m2, sums, err := decodeAGCell(d, k)
		if err != nil {
			return nil, err
		}
		// Each cell keeps its checked table in place.
		cellDom := geom.Domain{Rect: dom.CellRect(k%m1, k/m1, m1, m1)}
		if a.cells[k], err = grid.PrefixFromSums(cellDom, m2, m2, sums); err != nil {
			return nil, fmt.Errorf("core: cell %d: %w", k, err)
		}
		a.leafPop += m2 * m2
		a.maxM2 = max(a.maxM2, m2)
	}
	sat := d.SATSection(m1, m1)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	// The level-1 table sums the cell totals (each table's last entry).
	totals := make([]float64, n)
	for k := range a.cells {
		totals[k] = a.cells[k].Total()
	}
	level1, err := grid.FromValues(dom, m1, m1, totals)
	if err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	if a.level1, err = grid.AdoptPrefix(level1, sat); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	a.satBacked = sat != nil
	return a, nil
}

// decodeAGCell reads AG cell k: its (m2+1)^2 sums table, and m2 from
// the table's length, which must be the square of a side >= 2.
func decodeAGCell(d *codec.Dec, k int) (m2 int, sums []float64, err error) {
	sums = d.F64Section()
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("core: cell %d: %w", k, err)
	}
	side := int(math.Sqrt(float64(len(sums))))
	for side*side > len(sums) {
		side--
	}
	for (side+1)*(side+1) <= len(sums) {
		side++
	}
	if side < 2 || side*side != len(sums) {
		return 0, nil, fmt.Errorf("core: cell %d: sums section of %d entries is not an (m2+1)^2 table with m2 >= 1", k, len(sums))
	}
	return side - 1, sums, nil
}
