package core

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Binary (dpgridv2) serialization of UG and AG synopses — the compact
// companion to the JSON format in serialize.go. Both formats carry the
// same release (cell boundaries and noisy counts), so the choice is
// pure engineering: binary files are a fraction of the size and decode
// in place instead of parsing decimal text.
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
// Version-1 AG containers precede each cell's section with its m2 as a
// u32; version 2 dropped the redundant field, which is also what keeps
// consecutive cell sections 8-byte aligned with no padding.
//
// AG cells persist the prefix-sum table rather than the leaf counts:
// the table is the synopsis's exact in-memory query structure, so
// encode/decode never recompute sums — round trips are bit-identical,
// and decoding adopts each table where it lies in the container bytes,
// with no O(cells) prefix rebuild. (Deriving leaves from sums and
// re-summing on load, as the JSON format does, loses bit-identity to
// float rounding.)
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

// init announces the UG and AG codecs to the kind registry; every
// serialization layer (container sniffing, sharded-manifest embedding,
// dpserve loading) dispatches through it.
func init() {
	codec.Register(codec.Registration{
		Kind:       codec.KindUniform,
		Name:       "uniform-grid",
		JSONFormat: FormatUG,
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParseUniformGridBinary(data)
		},
		DecodeJSON: func(data []byte) (codec.Synopsis, error) {
			return ParseUniformGrid(data)
		},
		Tile: true,
	})
	codec.Register(codec.Registration{
		Kind:       codec.KindAdaptive,
		Name:       "adaptive-grid",
		JSONFormat: FormatAG,
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParseAdaptiveGridBinary(data)
		},
		DecodeJSON: func(data []byte) (codec.Synopsis, error) {
			return ParseAdaptiveGrid(data)
		},
		Tile: true,
	})
}

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
		e.F64s(a.cells[k].leaves.Sums())
	}
	e.SATSection(a.level1.Sums())
	return e.Bytes(), nil
}

// ParseUniformGridBinary deserializes a UG dpgridv2 container,
// validating every invariant: count finiteness, and the stored SAT's
// bitwise consistency with the counts. The counts and the adopted SAT
// alias data (see the layout comment above).
func ParseUniformGridBinary(data []byte) (*UniformGrid, error) {
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if kind != codec.KindUniform {
		return nil, fmt.Errorf("core: container kind %v is not %v", kind, codec.KindUniform)
	}
	dom, err := d.Domain()
	if err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	eps := d.F64()
	m, mx, my := d.Int32(), d.Int32(), d.Int32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("core: invalid epsilon %g", eps)
	}
	if m < 1 {
		return nil, fmt.Errorf("core: invalid grid size %d", m)
	}
	// uint64 arithmetic: both factors come from u32 fields, and an
	// int64 product of two adversarial 4e9 values would overflow and
	// wrap past the cap.
	if mx < 1 || my < 1 || uint64(mx)*uint64(my) > grid.MaxCells {
		return nil, fmt.Errorf("core: invalid grid dimensions %dx%d", mx, my)
	}
	vals := d.F64s(mx * my)
	sat := d.SATSection(mx, my)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if err := checkFinite(vals); err != nil {
		return nil, err
	}
	counts, err := grid.FromValues(dom, mx, my, vals)
	if err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	// With a stored SAT the prefix table is adopted rather than rebuilt;
	// the bitwise check against the counts guarantees it is the exact
	// table NewPrefix would produce, so both paths answer (and
	// re-encode) identically.
	prefix, err := grid.AdoptPrefix(counts, sat)
	if err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
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

// ParseAdaptiveGridBinary deserializes an AG dpgridv2 container,
// validating every invariant: each cell's sums table is checked for
// finiteness and the zero border every NewPrefix-built table has, and a
// stored level-1 SAT bit-for-bit against the cell totals it summarizes.
// The cell tables and the adopted SAT alias data (see the layout
// comment above).
func ParseAdaptiveGridBinary(data []byte) (*AdaptiveGrid, error) {
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if kind != codec.KindAdaptive {
		return nil, fmt.Errorf("core: container kind %v is not %v", kind, codec.KindAdaptive)
	}
	dom, err := d.Domain()
	if err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	eps := d.F64()
	alpha := d.F64()
	m1 := d.Int32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("core: invalid epsilon %g", eps)
	}
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("core: invalid alpha %g", alpha)
	}
	if m1 < 1 || uint64(m1)*uint64(m1) > grid.MaxCells {
		return nil, fmt.Errorf("core: invalid m1 %d", m1)
	}
	n := m1 * m1
	// Every encoded cell occupies at least 40 bytes (a u64 length prefix
	// and a minimum 2x2 sums table; 44 with version 1's u32 m2), so an
	// m1 whose cells cannot fit in the remaining payload is corrupt.
	// Checking before the allocations below keeps a hostile header from
	// demanding gigabytes for a claim the file's own size refutes.
	minCellBytes := 8 + 4*8
	if d.Version() == 1 {
		minCellBytes += 4
	}
	if n > d.Remaining()/minCellBytes {
		return nil, fmt.Errorf("core: m1 %d demands %d cells but only %d bytes remain", m1, n, d.Remaining())
	}
	ag := &AdaptiveGrid{
		dom:      dom,
		eps:      eps,
		alpha:    alpha,
		m1:       m1,
		cells:    make([]agCell, n),
		maxM2:    1,
		epsLevel: [2]float64{alpha * eps, (1 - alpha) * eps},
	}
	// The cell totals (each table's last entry) are O(m1^2), a sliver of
	// the payload the minimum-cell-size guard already bounded; the SAT
	// sits after the cells, so its check needs all of them.
	totals := make([]float64, n)
	for k := range ag.cells {
		m2, sums, err := decodeAGCell(d)
		if err != nil {
			return nil, fmt.Errorf("core: cell %d: %w", k, err)
		}
		cellRect := dom.CellRect(k%m1, k/m1, m1, m1)
		leaves, err := grid.PrefixFromSums(geom.Domain{Rect: cellRect}, m2, m2, sums)
		if err != nil {
			return nil, fmt.Errorf("core: cell %d: %w", k, err)
		}
		ag.cells[k] = agCell{rect: cellRect, m2: m2, leaves: leaves}
		totals[k] = leaves.Total()
		ag.leafPop += m2 * m2
		ag.maxM2 = max(ag.maxM2, m2)
	}
	sat := d.SATSection(m1, m1)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	// A stored SAT verified bit-identical to NewPrefix(totals) changes
	// no answer when adopted — it just skips the rebuild.
	level1, err := grid.FromValues(dom, m1, m1, totals)
	if err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if ag.level1, err = grid.AdoptPrefix(level1, sat); err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	ag.satBacked = sat != nil
	return ag, nil
}

// decodeAGCell reads one AG cell: its m2 and its (m2+1)^2 sums table.
// Version 1 stores m2 as a u32 ahead of the table; version 2 derives it
// from the table's length, which must be the square of a side >= 2.
func decodeAGCell(d *codec.Dec) (int, []float64, error) {
	if d.Version() == 1 {
		m2 := d.Int32()
		if err := d.Err(); err != nil {
			return 0, nil, err
		}
		if m2 < 1 || uint64(m2)*uint64(m2) > grid.MaxCells {
			return 0, nil, fmt.Errorf("invalid m2 %d", m2)
		}
		sums := d.F64s((m2 + 1) * (m2 + 1))
		return m2, sums, d.Err()
	}
	sums := d.F64Section()
	if err := d.Err(); err != nil {
		return 0, nil, err
	}
	side := int(math.Sqrt(float64(len(sums))))
	for side*side > len(sums) {
		side--
	}
	for (side+1)*(side+1) <= len(sums) {
		side++
	}
	if side < 2 || side*side != len(sums) {
		return 0, nil, fmt.Errorf("sums section of %d entries is not an (m2+1)^2 table with m2 >= 1", len(sums))
	}
	return side - 1, sums, nil
}
