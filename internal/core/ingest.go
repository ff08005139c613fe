package core

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/pool"
)

// gatherCap caps how many in-domain points a build gathers into memory
// from a source that is not already in memory: 8M points is 128 MiB of
// point data. Past the cap the build keeps its out-of-core bound and
// re-scans the source for each later pass.
const gatherCap = 8 << 20

// maxRescanFloats bounds the aggregate size of the per-worker partial
// leaf histograms the leaf pass allocates: past it, the pass runs fewer
// workers rather than multiplying a huge leaf population by the worker
// count. 2^27 float64s = 1 GiB.
const maxRescanFloats = 1 << 27

// ingest is the one ingest plan of the UG and AG builders: it returns
// the data their histogram passes scan and, with needN, the number of
// in-domain points the grid-size rules take. An in-memory source
// (geom.InMemory) is used in place, and counted by a scan over memory
// only when needN. Any other source is gathered by one
// geom.CountInDomain scan that also gives N; past capPoints nothing is
// kept and data is the source itself, so every later pass re-scans it.
func ingest(seq geom.PointSeq, dom geom.Domain, workers, capPoints int, needN bool) (data geom.PointSeq, n int64, err error) {
	if geom.InMemory(seq) {
		if !needN {
			return seq, 0, nil
		}
		capPoints = 0
	}
	pts, n, err := geom.CountInDomain(seq, dom, workers, capPoints)
	if err != nil {
		return nil, 0, fmt.Errorf("core: gathering points: %w", err)
	}
	if pts != nil {
		return pts, n, nil
	}
	return seq, n, nil
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

// leafRescan is the AG leaf pass: one chunked scan of seq (the gathered
// slice, or the source itself past gatherCap) builds every cell's leaf
// histogram, with per-cell geometry precomputed once instead of
// re-derived per point. Parallel workers
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
