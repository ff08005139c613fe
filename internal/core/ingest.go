package core

import (
	"fmt"
	"sync/atomic"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/pool"
)

// DefaultAGIndexPoints is the default cap on how many in-domain points
// the fused AG build may buffer in its level-1-binned index (see
// AGOptions.IndexLimit): 8M points is ~128 MiB of point data — cheap on
// any machine that wants a fast build — while datasets past the cap
// degrade gracefully to the streaming re-scan leaf pass.
const DefaultAGIndexPoints = 8 << 20

// maxRescanFloats bounds the aggregate size of the per-worker partial
// leaf histograms the streaming re-scan leaf pass allocates; past it,
// the pass sheds workers rather than multiplying a huge leaf population
// by the worker count. 2^27 float64s = 1 GiB.
const maxRescanFloats = 1 << 27

// cellPoints is the compact level-1-binned point index the fused AG
// scan produces: all in-domain points in one flat slice, grouped by
// first-level cell (CSR layout, counting sort by cell). The leaf pass
// iterates one cell's contiguous bin at a time — cache-local, and
// trivially cell-parallel — instead of re-scanning (and, for file
// sources, re-parsing) the raw stream.
type cellPoints struct {
	starts []int // len m1*m1+1; bin k is pts[starts[k]:starts[k+1]]
	pts    []geom.Point
}

func (c *cellPoints) bin(k int) []geom.Point { return c.pts[c.starts[k]:c.starts[k+1]] }

// newCellPoints sizes an index from the exact level-1 histogram vals
// and returns it with every bin's fill cursor at the bin's start.
func newCellPoints(vals []float64) (*cellPoints, []int) {
	idx := &cellPoints{starts: make([]int, len(vals)+1)}
	for k, v := range vals {
		idx.starts[k+1] = idx.starts[k] + int(v)
	}
	idx.pts = make([]geom.Point, idx.starts[len(vals)])
	return idx, append([]int(nil), idx.starts[:len(vals)]...)
}

// histogramIndexed is the fused AG scan: one pass over seq produces the
// exact first-level m1 x m1 histogram and, when the in-domain point
// count stays within limit, the level-1-binned point index the leaf
// pass consumes in place of a second scan. limit <= 0 disables the
// index (pure streaming build); past the limit mid-scan the index is
// abandoned while the histogram completes exactly.
//
// The histogram is bit-identical to grid.FromSeqParallel's for every
// workers value (integer counts merge exactly under any stream
// partition), and the index holds exactly the histogrammed points,
// keyed by the same binning.
func histogramIndexed(seq geom.PointSeq, dom geom.Domain, m1, workers, limit int) (*grid.Counts, *cellPoints, error) {
	workers = pool.Workers(workers)
	if sp, ok := seq.(geom.SlicePoints); ok {
		return histogramIndexedSlice(sp, dom, m1, workers, limit)
	}
	if workers > 1 && m1*m1 > maxRescanFloats/workers {
		// Shed workers rather than multiplying a near-cap histogram
		// allocation by the core count.
		if workers = maxRescanFloats / (m1 * m1); workers < 1 {
			workers = 1
		}
	}
	level1, err := grid.New(dom, m1, m1)
	if err != nil {
		return nil, nil, err
	}
	w1, h1 := dom.CellSize(m1, m1)

	type wstate struct {
		vals []float64
		pts  []geom.Point
		keys []int32 // level-1 cell per buffered point (m1*m1 <= MaxCells < 2^31)
	}
	states := make([]*wstate, workers)
	var buffered atomic.Int64
	var dead atomic.Bool
	if limit <= 0 {
		dead.Store(true)
	}
	err = geom.ForEachChunkParallel(seq, workers, func(w int, chunk []geom.Point) {
		st := states[w]
		if st == nil {
			st = &wstate{vals: make([]float64, m1*m1)}
			states[w] = st
		}
		keep := !dead.Load()
		kept := 0
		for _, p := range chunk {
			if !dom.Contains(p) {
				continue
			}
			ix, iy := dom.CellIndexAt(p, w1, h1, m1, m1)
			k := iy*m1 + ix
			st.vals[k]++
			if keep {
				st.pts = append(st.pts, p)
				st.keys = append(st.keys, int32(k))
				kept++
			}
		}
		if keep && buffered.Add(int64(kept)) > int64(limit) {
			dead.Store(true)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: scanning points: %w", err)
	}

	// Merge the partial histograms in fixed worker order (exact for
	// integer counts under any order; the fixed order keeps the merge
	// reproducible by inspection).
	vals := level1.Values()
	for _, st := range states {
		if st == nil {
			continue
		}
		for i, v := range st.vals {
			vals[i] += v
		}
	}
	if dead.Load() {
		return level1, nil, nil
	}

	// Counting sort into CSR bins: the histogram already holds every
	// bin's size, so one cursor sweep places each worker's buffered
	// points. Bin-internal order depends on chunk scheduling, which is
	// fine — every consumer of a bin computes order-free integer sums.
	idx, cursor := newCellPoints(vals)
	for _, st := range states {
		if st == nil {
			continue
		}
		for j, p := range st.pts {
			k := st.keys[j]
			idx.pts[cursor[k]] = p
			cursor[k]++
		}
	}
	return level1, idx, nil
}

// histogramIndexedSlice is histogramIndexed for a stable in-memory
// source: the histogram pass runs with no point buffering at all
// (grid.FromSeqParallel over the slice), and the CSR index — when the
// in-domain count fits limit — scatters directly from the slice,
// recomputing each point's key with the same arithmetic. Peak extra
// memory is the index itself, never per-worker copies of the data.
func histogramIndexedSlice(sp geom.SlicePoints, dom geom.Domain, m1, workers, limit int) (*grid.Counts, *cellPoints, error) {
	level1, err := grid.FromSeqParallel(dom, m1, m1, sp, workers)
	if err != nil {
		return nil, nil, err
	}
	if limit <= 0 || level1.Total() > float64(limit) {
		return level1, nil, nil
	}
	idx, cursor := newCellPoints(level1.Values())
	w1, h1 := dom.CellSize(m1, m1)
	for _, p := range sp {
		if !dom.Contains(p) {
			continue
		}
		ix, iy := dom.CellIndexAt(p, w1, h1, m1, m1)
		k := iy*m1 + ix
		idx.pts[cursor[k]] = p
		cursor[k]++
	}
	return level1, idx, nil
}

// leafGeom is one first-level cell's leaf-binning geometry, computed
// once per cell instead of once per point: the cell's min corner, the
// leaf cell size, and its reciprocal so the hot path bins with
// multiplies instead of divisions.
type leafGeom struct {
	minX, minY float64
	w, h       float64 // leaf cell extent (cell size / m2)
	invW, invH float64
	m2         int
}

func leafGeomFor(dom geom.Domain, ix, iy, m1, m2 int) leafGeom {
	r := dom.CellRect(ix, iy, m1, m1)
	w := r.Width() / float64(m2)
	h := r.Height() / float64(m2)
	return leafGeom{minX: r.MinX, minY: r.MinY, w: w, h: h, invW: 1 / w, invH: 1 / h, m2: m2}
}

// leaf maps p to its leaf cell. The reciprocal multiply can land an ulp
// off the true bin, so a snap step corrects against the cell's actual
// edge coordinates, enforcing the package-wide convention exactly: a
// point on an interior leaf edge belongs to the higher-index leaf.
func (g *leafGeom) leaf(p geom.Point) (lx, ly int) {
	lx = snapScaled((p.X-g.minX)*g.invW, p.X-g.minX, g.w, g.m2)
	ly = snapScaled((p.Y-g.minY)*g.invH, p.Y-g.minY, g.h, g.m2)
	return lx, ly
}

// snapScaled turns the approximate bin index scaled = off*(1/w) into
// the exact index of the bin [i*w, (i+1)*w) containing off, clamped to
// [0, m). The correction loops run at most once for any off within an
// ulp of the multiply's answer — i.e. always, in practice.
//
// Snapping against the bin's actual edge coordinates is deliberate: it
// enforces the package-wide documented convention (a point on an
// interior edge belongs to the higher-index bin) exactly, which the
// old per-point division could itself miss by an ulp when the quotient
// rounded across an edge. On ulp-edge coordinates this can bin a point
// one leaf away from the pre-engine build; the golden files under
// testdata/ pin the released encodings and confirm the real datasets
// are unaffected.
func snapScaled(scaled, off, w float64, m int) int {
	i := int(scaled)
	for i+1 < m && off >= float64(i+1)*w {
		i++
	}
	for i > 0 && off < float64(i)*w {
		i--
	}
	if i < 0 {
		i = 0
	}
	if i >= m {
		i = m - 1
	}
	return i
}

// leafFill builds every cell's exact leaf histogram from the binned
// point index: cell-parallel, each cell reading its own contiguous bin
// and writing its own disjoint leafFlat range.
func leafFill(idx *cellPoints, dom geom.Domain, m1 int, m2s, leafStarts []int, leafFlat []float64, workers int) {
	pool.For(m1*m1, workers, func(k int) {
		m2 := m2s[k]
		g := leafGeomFor(dom, k%m1, k/m1, m1, m2)
		leaves := leafFlat[leafStarts[k]:leafStarts[k+1]]
		for _, p := range idx.bin(k) {
			lx, ly := g.leaf(p)
			leaves[ly*m2+lx]++
		}
	})
}

// leafRescan is the streaming fallback when no point index is
// available (IndexLimit disabled or exceeded): one more chunked scan of
// the source builds the leaf histograms, with per-cell geometry
// precomputed once instead of re-derived per point. Parallel workers
// accumulate into private partial buffers merged in fixed worker order
// — exact, like every histogram merge in this package.
func leafRescan(seq geom.PointSeq, dom geom.Domain, m1 int, m2s, leafStarts []int, leafFlat []float64, workers int) error {
	workers = pool.Workers(workers)
	if workers > 1 && len(leafFlat)*workers > maxRescanFloats {
		if workers = maxRescanFloats / len(leafFlat); workers < 1 {
			workers = 1
		}
	}
	geoms := make([]leafGeom, m1*m1)
	for k := range geoms {
		geoms[k] = leafGeomFor(dom, k%m1, k/m1, m1, m2s[k])
	}
	w1, h1 := dom.CellSize(m1, m1)
	partials := make([][]float64, workers)
	if workers == 1 {
		partials[0] = leafFlat // the sequential scan histograms in place
	}
	err := geom.ForEachChunkParallel(seq, workers, func(w int, chunk []geom.Point) {
		flat := partials[w]
		if flat == nil {
			flat = make([]float64, len(leafFlat))
			partials[w] = flat
		}
		for _, p := range chunk {
			if !dom.Contains(p) {
				continue
			}
			ix, iy := dom.CellIndexAt(p, w1, h1, m1, m1)
			k := iy*m1 + ix
			g := &geoms[k]
			lx, ly := g.leaf(p)
			flat[leafStarts[k]+ly*g.m2+lx]++
		}
	})
	if err != nil {
		return fmt.Errorf("core: second pass: %w", err)
	}
	if workers == 1 {
		return nil
	}
	for _, flat := range partials {
		if flat == nil {
			continue
		}
		for i, v := range flat {
			leafFlat[i] += v
		}
	}
	return nil
}
