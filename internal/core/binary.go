package core

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Binary (dpgridv2) serialization of UG and AG synopses — the compact
// companion to the JSON format in serialize.go. Both formats carry the
// same release (cell boundaries and noisy counts), so the choice is
// pure engineering: binary files are a fraction of the size and decode
// by copying instead of parsing decimal text.
//
// Layouts (after the codec container header; all little endian):
//
//	UG:  domain (4 f64) | epsilon (f64) | m, mx, my (u32) |
//	     counts (length-prefixed f64 section, mx*my row-major) |
//	     SAT trailer (optional; see below)
//	AG:  domain (4 f64) | epsilon (f64) | alpha (f64) | m1 (u32) |
//	     m1*m1 cells, each: m2 (u32) |
//	     prefix sums (length-prefixed f64 section, (m2+1)^2 row-major) |
//	     SAT trailer (optional; see below)
//
// AG cells persist the prefix-sum table rather than the leaf counts:
// the table is the synopsis's exact in-memory query structure, so
// encode/decode never recompute sums — round trips are bit-identical
// and decoding is an allocation plus a copy, with no O(cells) prefix
// rebuild. (Deriving leaves from sums and re-summing on load, as the
// JSON format does, loses bit-identity to float rounding.)
//
// The SAT trailer (codec.SATTag + a length-prefixed f64 section) is the
// top-level summed-area table: for UG the (mx+1)*(my+1) prefix sums of
// the counts section, for AG the (m1+1)^2 prefix sums of the per-cell
// table totals (each cell table's last entry — NOT the in-memory
// level-1 totals, which hold the constrained-inference v' values a
// reader cannot re-derive from the file). Decoders verify the trailer
// bit-for-bit against the body (codec.CheckSATRaw), so a SAT-backed
// decode answers identically to a reader that ignores the section and
// rebuilds, and re-encoding reproduces the container byte-for-byte.
// Files written before the trailer existed decode unchanged; the
// zero-copy view parsers below serve queries straight from the mapped
// trailer bytes.

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
		DecodeBinaryView: ParseUniformGridBinaryView,
		Tile:             true,
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
		DecodeBinaryView: ParseAdaptiveGridBinaryView,
		Tile:             true,
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
	EncodeDomain(e, u.dom)
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
	EncodeDomain(e, a.dom)
	e.F64(a.eps)
	e.F64(a.alpha)
	e.U32(uint32(a.m1))
	for k := range a.cells {
		cell := &a.cells[k]
		e.U32(uint32(cell.m2))
		e.F64s(cell.leaves.Sums())
	}
	sat, err := a.encodeSAT()
	if err != nil {
		return nil, err
	}
	e.SATSection(sat)
	return e.Bytes(), nil
}

// encodeSAT computes the AG container's level-1 summed-area trailer:
// the prefix table over each cell table's total (its sums table's last
// entry). It is deliberately NOT a.level1 — a freshly built AG's
// level-1 table holds the constrained-inference v' totals, which
// diverge from the leaf-table totals by float rounding and are not
// derivable from the file. Defining the trailer over what the file
// actually stores is what lets the decoder verify it bit-for-bit and
// keeps a SAT-backed decode answer-identical to a section-ignoring
// rebuild.
func (a *AdaptiveGrid) encodeSAT() ([]float64, error) {
	totals, err := grid.New(a.dom, a.m1, a.m1)
	if err != nil {
		return nil, fmt.Errorf("core: encode AG SAT: %w", err)
	}
	vals := totals.Values()
	for k := range a.cells {
		vals[k] = a.cells[k].leaves.Total()
	}
	return grid.NewPrefix(totals).Sums(), nil
}

// ParseUniformGridBinary deserializes a UG dpgridv2 container,
// validating all structural invariants.
func ParseUniformGridBinary(data []byte) (*UniformGrid, error) {
	f, err := decodeUGBinary(data)
	if err != nil {
		return nil, err
	}
	return f.build()
}

// ParseAdaptiveGridBinary deserializes an AG dpgridv2 container,
// validating all structural invariants.
func ParseAdaptiveGridBinary(data []byte) (*AdaptiveGrid, error) {
	f, err := decodeAGBinary(data)
	if err != nil {
		return nil, err
	}
	return f.build()
}

// EncodeDomain appends a domain's four bounds as float64s — the shared
// wire form every container kind (including internal/shard's manifests)
// uses for domains. Kept as a wrapper over codec's Enc.Domain for
// callers already importing core.
func EncodeDomain(e *codec.Enc, dom geom.Domain) { e.Domain(dom) }

// DecodeDomain reads and validates the four-bound wire form
// EncodeDomain writes.
func DecodeDomain(d *codec.Dec) (geom.Domain, error) { return d.Domain() }

type ugBinary struct {
	dom       geom.Domain
	eps       float64
	m         int
	mx, my    int
	rawCounts []byte // counts section in place (a view into data)
	rawSAT    []byte // stored SAT section in place; nil when absent
}

// decodeUGBinary reads and validates a UG container — every invariant,
// including count finiteness and the stored SAT's bitwise consistency
// with the counts, scanned in place — and captures the float sections
// as views into data. build copies them; the view parser reads them
// where they are.
func decodeUGBinary(data []byte) (ugBinary, error) {
	var f ugBinary
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return f, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if kind != codec.KindUniform {
		return f, fmt.Errorf("core: container kind %v is not %v", kind, codec.KindUniform)
	}
	f.dom, err = DecodeDomain(d)
	if err != nil {
		return f, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	f.eps = d.F64()
	f.m, f.mx, f.my = d.Int32(), d.Int32(), d.Int32()
	if err := d.Err(); err != nil {
		return f, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if !(f.eps > 0) {
		return f, fmt.Errorf("core: invalid epsilon %g", f.eps)
	}
	if f.m < 1 {
		return f, fmt.Errorf("core: invalid grid size %d", f.m)
	}
	// uint64 arithmetic: both factors come from u32 fields, and an
	// int64 product of two adversarial 4e9 values would overflow and
	// wrap past the cap.
	if f.mx < 1 || f.my < 1 || uint64(f.mx)*uint64(f.my) > grid.MaxCells {
		return f, fmt.Errorf("core: invalid grid dimensions %dx%d", f.mx, f.my)
	}
	f.rawCounts = d.RawF64s(f.mx * f.my)
	f.rawSAT = d.SATSection(f.mx, f.my)
	if err := d.Finish(); err != nil {
		return f, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if err := checkFiniteRaw(f.rawCounts); err != nil {
		return f, err
	}
	if f.rawSAT != nil {
		err := codec.CheckSATRaw(f.rawSAT, f.mx, f.my, func(i int) float64 {
			return codec.F64At(f.rawCounts, i)
		})
		if err != nil {
			return f, fmt.Errorf("core: parse UG synopsis: %w", err)
		}
	}
	return f, nil
}

func (f *ugBinary) build() (*UniformGrid, error) {
	counts, err := grid.New(f.dom, f.mx, f.my)
	if err != nil {
		return nil, err
	}
	vals := counts.Values()
	for i := range vals {
		vals[i] = codec.F64At(f.rawCounts, i)
	}
	// With a stored SAT the prefix table is adopted rather than rebuilt;
	// the decode-time bitwise check against the counts guarantees it is
	// the exact table NewPrefix would produce, so both paths answer (and
	// re-encode) identically.
	var prefix *grid.Prefix
	if f.rawSAT != nil {
		prefix, err = grid.PrefixFromSums(f.dom, f.mx, f.my, decodeF64s(f.rawSAT))
		if err != nil {
			return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
		}
	} else {
		prefix = grid.NewPrefix(counts)
	}
	return &UniformGrid{
		dom:       f.dom,
		eps:       f.eps,
		m:         f.m,
		mx:        f.mx,
		my:        f.my,
		noisy:     counts,
		prefix:    prefix,
		satBacked: f.rawSAT != nil,
	}, nil
}

// ParseUniformGridBinaryView decodes a UG container into a zero-copy
// view over data when the container carries a stored SAT section:
// queries read the mapped sums bytes in place, and the only decode
// allocations are the view descriptor itself. Containers without the
// section (written before it existed) have no zero-copy query
// structure and are copied into a UniformGrid instead. The caller keeps
// data immutable and alive for the result's lifetime.
func ParseUniformGridBinaryView(data []byte) (codec.Synopsis, error) {
	f, err := decodeUGBinary(data)
	if err != nil {
		return nil, err
	}
	if f.rawSAT == nil {
		return buildSynopsis(f.build())
	}
	prefix, err := grid.RawPrefixFromSection(f.dom, f.mx, f.my, f.rawSAT)
	if err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	return &UGView{
		raw:    data,
		eps:    f.eps,
		m:      f.m,
		prefix: prefix,
	}, nil
}

type agBinary struct {
	dom      geom.Domain
	eps      float64
	alpha    float64
	m1       int
	m2s      []int     // every cell's m2
	totals   []float64 // every cell table's last entry (its total)
	rawCells [][]byte  // every cell's sums section in place
	rawSAT   []byte    // stored level-1 SAT in place; nil when absent
}

// decodeAGBinary reads and validates an AG container, capturing each
// cell's sums section and the level-1 SAT as views into data (see
// decodeUGBinary). Each cell's sums table is checked for finiteness and
// the zero border every NewPrefix-built table has; a stored level-1 SAT
// is checked bit-for-bit against the cell totals it summarizes. The
// per-cell m2s and totals are O(m1^2), a sliver of the payload the
// minimum-cell-size guard already bounded — the SAT sits after the
// cells, so its consistency check needs the totals of all of them.
func decodeAGBinary(data []byte) (agBinary, error) {
	var f agBinary
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return f, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if kind != codec.KindAdaptive {
		return f, fmt.Errorf("core: container kind %v is not %v", kind, codec.KindAdaptive)
	}
	f.dom, err = DecodeDomain(d)
	if err != nil {
		return f, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	f.eps = d.F64()
	f.alpha = d.F64()
	f.m1 = d.Int32()
	if err := d.Err(); err != nil {
		return f, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if !(f.eps > 0) {
		return f, fmt.Errorf("core: invalid epsilon %g", f.eps)
	}
	if !(f.alpha > 0 && f.alpha < 1) {
		return f, fmt.Errorf("core: invalid alpha %g", f.alpha)
	}
	if f.m1 < 1 || uint64(f.m1)*uint64(f.m1) > grid.MaxCells {
		return f, fmt.Errorf("core: invalid m1 %d", f.m1)
	}
	n := f.m1 * f.m1
	// Every encoded cell occupies at least 44 bytes (u32 m2, u64 length
	// prefix, and a minimum 2x2 sums table), so an m1 whose cells cannot
	// fit in the remaining payload is corrupt. Checking before the
	// allocation below keeps a hostile header from demanding gigabytes
	// for a claim the file's own size refutes.
	const minCellBytes = 4 + 8 + 4*8
	if n > d.Remaining()/minCellBytes {
		return f, fmt.Errorf("core: m1 %d demands %d cells but only %d bytes remain", f.m1, n, d.Remaining())
	}
	f.rawCells = make([][]byte, 0, n)
	f.m2s = make([]int, 0, n)
	f.totals = make([]float64, 0, n)
	for k := 0; k < n; k++ {
		m2 := d.Int32()
		if err := d.Err(); err != nil {
			return f, fmt.Errorf("core: cell %d: %w", k, err)
		}
		if m2 < 1 || uint64(m2)*uint64(m2) > grid.MaxCells {
			return f, fmt.Errorf("core: cell %d: invalid m2 %d", k, m2)
		}
		raw := d.RawF64s((m2 + 1) * (m2 + 1))
		if err := d.Err(); err != nil {
			return f, fmt.Errorf("core: cell %d: %w", k, err)
		}
		if err := checkSumsRaw(raw, m2); err != nil {
			return f, fmt.Errorf("core: cell %d: %w", k, err)
		}
		f.m2s = append(f.m2s, m2)
		f.totals = append(f.totals, codec.F64At(raw, (m2+1)*(m2+1)-1))
		f.rawCells = append(f.rawCells, raw)
	}
	f.rawSAT = d.SATSection(f.m1, f.m1)
	if err := d.Finish(); err != nil {
		return f, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if f.rawSAT != nil {
		err := codec.CheckSATRaw(f.rawSAT, f.m1, f.m1, func(i int) float64 {
			return f.totals[i]
		})
		if err != nil {
			return f, fmt.Errorf("core: parse AG synopsis: %w", err)
		}
	}
	return f, nil
}

func (f *agBinary) build() (*AdaptiveGrid, error) {
	ag := &AdaptiveGrid{
		dom:   f.dom,
		eps:   f.eps,
		alpha: f.alpha,
		m1:    f.m1,
		cells: make([]agCell, f.m1*f.m1),
	}
	totals, err := grid.New(f.dom, f.m1, f.m1)
	if err != nil {
		return nil, err
	}
	leafPop := 0
	maxM2 := 1
	for iy := 0; iy < f.m1; iy++ {
		for ix := 0; ix < f.m1; ix++ {
			k := iy*f.m1 + ix
			m2 := f.m2s[k]
			cellRect := f.dom.CellRect(ix, iy, f.m1, f.m1)
			prefix, err := grid.PrefixFromSums(geom.Domain{Rect: cellRect}, m2, m2, decodeF64s(f.rawCells[k]))
			if err != nil {
				return nil, fmt.Errorf("core: cell %d: %w", k, err)
			}
			ag.cells[k] = agCell{
				rect:   cellRect,
				m2:     m2,
				total:  prefix.Total(),
				leaves: prefix,
			}
			totals.Set(ix, iy, prefix.Total())
			leafPop += m2 * m2
			if m2 > maxM2 {
				maxM2 = m2
			}
		}
	}
	// A stored SAT was verified bit-identical to NewPrefix(totals) at
	// decode time, so adopting it changes no answer — it just skips the
	// rebuild.
	if f.rawSAT != nil {
		ag.level1, err = grid.PrefixFromSums(f.dom, f.m1, f.m1, decodeF64s(f.rawSAT))
		if err != nil {
			return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
		}
		ag.satBacked = true
	} else {
		ag.level1 = grid.NewPrefix(totals)
	}
	ag.leafPop = leafPop
	ag.maxM2 = maxM2
	ag.epsLevel = [2]float64{f.alpha * f.eps, (1 - f.alpha) * f.eps}
	return ag, nil
}

// ParseAdaptiveGridBinaryView is ParseUniformGridBinaryView for AG
// containers: with a stored SAT section, the level-1 table and every
// cell's sums table are served zero-copy from data (the view
// materializes O(m1^2) cell descriptors, never the float payload);
// without one it is copied into an AdaptiveGrid instead.
func ParseAdaptiveGridBinaryView(data []byte) (codec.Synopsis, error) {
	f, err := decodeAGBinary(data)
	if err != nil {
		return nil, err
	}
	if f.rawSAT == nil {
		return buildSynopsis(f.build())
	}
	level1, err := grid.RawPrefixFromSection(f.dom, f.m1, f.m1, f.rawSAT)
	if err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	v := &AGView{
		raw:    data,
		eps:    f.eps,
		alpha:  f.alpha,
		m1:     f.m1,
		level1: level1,
		cells:  make([]agViewCell, f.m1*f.m1),
	}
	for iy := 0; iy < f.m1; iy++ {
		for ix := 0; ix < f.m1; ix++ {
			k := iy*f.m1 + ix
			cellRect := f.dom.CellRect(ix, iy, f.m1, f.m1)
			m2 := f.m2s[k]
			leaves, err := grid.RawPrefixFromSection(geom.Domain{Rect: cellRect}, m2, m2, f.rawCells[k])
			if err != nil {
				return nil, fmt.Errorf("core: cell %d: %w", k, err)
			}
			v.cells[k] = agViewCell{
				rect:   cellRect,
				m2:     m2,
				total:  f.totals[k],
				leaves: leaves,
			}
		}
	}
	return v, nil
}

// buildSynopsis returns a copying parser's result as a codec.Synopsis,
// keeping a failed build's nil pointer out of the interface.
func buildSynopsis[S codec.Synopsis](syn S, err error) (codec.Synopsis, error) {
	if err != nil {
		return nil, err
	}
	return syn, nil
}

// decodeF64s materializes a raw float64 section.
func decodeF64s(raw []byte) []float64 { return codec.DecodeF64s(raw) }

// checkFiniteRaw is checkFinite over an undecoded float64 section.
func checkFiniteRaw(raw []byte) error { return codec.CheckFiniteRaw(raw) }

// checkSumsRaw validates an undecoded (m2+1)^2 prefix-sum table: every
// entry finite, first row and column zero (grid.PrefixFromSums enforces
// the same border, so zero-copy views and materializing decodes accept
// exactly the same payloads).
func checkSumsRaw(raw []byte, m2 int) error {
	return codec.CheckPrefixSumsRaw(raw, m2, m2)
}
