package core

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/codec"
)

// Binary (dpgridv2) serialization of UG and AG synopses — the compact
// companion to the JSON format in serialize.go. Both formats carry the
// same release (cell boundaries and noisy counts), so the choice is
// pure engineering: binary files are a fraction of the size and decode
// in place instead of parsing decimal text. Both also decode into the
// same ugParts/agParts and run the same header check (before any
// section is read; sizes bounded per axis before any product) and
// build step, so a corrupt release fails with the same error in
// either encoding.
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

// ParseUniformGridBinary deserializes a UG dpgridv2 container through
// the validator the JSON decoder shares (ugParts): the header is
// checked before the counts section is read, and a stored SAT must
// match the counts bit for bit. The counts and the adopted SAT alias
// data (see the layout comment above).
func ParseUniformGridBinary(data []byte) (*UniformGrid, error) {
	d, dom, eps, err := codec.OpenHead("core", data, codec.KindUniform)
	if err != nil {
		return nil, err
	}
	p := ugParts{dom: dom, eps: eps, m: d.Int32(), mx: d.Int32(), my: d.Int32()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	p.counts = d.F64s(p.mx * p.my)
	p.sat = d.SATSection(p.mx, p.my)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	return p.build()
}

// ParseAdaptiveGridBinary deserializes an AG dpgridv2 container
// through the validator the JSON decoder shares (agParts): the header
// is checked before any cell is read, each cell's sums table as it is
// read, for finiteness and the zero border every NewPrefix-built table
// has, and a stored level-1 SAT bit for bit against the cell totals it
// summarizes. The cell tables and the adopted SAT alias data (see the
// layout comment above).
func ParseAdaptiveGridBinary(data []byte) (*AdaptiveGrid, error) {
	d, dom, eps, err := codec.OpenHead("core", data, codec.KindAdaptive)
	if err != nil {
		return nil, err
	}
	p := agParts{dom: dom, eps: eps, alpha: d.F64(), m1: d.Int32()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	n := p.m1 * p.m1
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
		return nil, fmt.Errorf("core: m1 %d demands %d cells but only %d bytes remain", p.m1, n, d.Remaining())
	}
	p.begin()
	for k := 0; k < n; k++ {
		m2, sums, err := decodeAGCell(d, k)
		if err != nil {
			return nil, err
		}
		if err := p.addCell(m2, sums); err != nil {
			return nil, err
		}
	}
	p.sat = d.SATSection(p.m1, p.m1)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	return p.build()
}

// decodeAGCell reads AG cell k: its m2 and its (m2+1)^2 sums table.
// Version 1 stores m2 as a u32 ahead of the table; version 2 derives it
// from the table's length, which must be the square of a side >= 2.
func decodeAGCell(d *codec.Dec, k int) (m2 int, sums []float64, err error) {
	if d.Version() == 1 {
		m2 = d.Int32()
		if err := d.Err(); err != nil {
			return 0, nil, fmt.Errorf("core: cell %d: %w", k, err)
		}
		if err := checkM2(k, m2); err != nil {
			return 0, nil, err
		}
		sums = d.F64s((m2 + 1) * (m2 + 1))
		if err := d.Err(); err != nil {
			return 0, nil, fmt.Errorf("core: cell %d: %w", k, err)
		}
		return m2, sums, nil
	}
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
