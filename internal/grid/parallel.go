package grid

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/pool"
)

// histogramChunk adds chunk's in-domain points to vals (row-major
// mx x my). It is the shared histogram kernel of every ingestion path:
// the cell-size divisors are hoisted out of the loop, and the binning
// itself is geom.Domain.CellIndexAt — the package-wide single source
// of truth for cell assignment.
func histogramChunk(dom geom.Domain, mx, my int, chunk []geom.Point, vals []float64) {
	w, h := dom.CellSize(mx, my)
	for _, p := range chunk {
		if !dom.Contains(p) {
			continue
		}
		ix, iy := dom.CellIndexAt(p, w, h, mx, my)
		vals[iy*mx+ix]++
	}
}

// maxPartialFloats bounds the aggregate size of the per-worker partial
// grids a parallel histogram allocates; past it, workers are shed so a
// huge grid is never multiplied by the core count. 2^27 float64s =
// 1 GiB.
const maxPartialFloats = 1 << 27

// FromSeqParallel is FromPoints over a streaming point source, for
// datasets that do not fit in memory, fanned out across workers
// goroutines (workers < 1 means one per CPU). The stream is consumed
// in blocks: one worker histograms them straight into the result grid;
// more workers each histogram their blocks into a private partial grid,
// and the partials are merged in fixed worker order. Workers are shed
// when mx*my*workers would exceed maxPartialFloats, so parallelism
// never multiplies a near-cap grid allocation.
//
// The result is bit-identical for every workers value and every
// block-to-worker assignment: cell counts are sums of exact small
// integers (each point contributes 1.0), so float64 addition is
// associative over them and any partition of the stream merges to the
// same totals.
func FromSeqParallel(dom geom.Domain, mx, my int, seq geom.PointSeq, workers int) (*Counts, error) {
	workers = pool.Workers(workers)
	if workers > 1 && mx > 0 && my > 0 && mx*my > maxPartialFloats/workers {
		if workers = maxPartialFloats / (mx * my); workers < 1 {
			workers = 1
		}
	}
	c, err := New(dom, mx, my)
	if err != nil {
		return nil, err
	}
	// Partials are allocated on first touch so a stream with fewer
	// chunks than workers does not pay for idle workers' grids.
	partials := make([][]float64, workers)
	if workers == 1 {
		partials[0] = c.vals // the sequential scan histograms in place
	}
	err = geom.ForEachChunkParallel(seq, workers, func(w int, chunk []geom.Point) {
		vals := partials[w]
		if vals == nil {
			vals = make([]float64, mx*my)
			partials[w] = vals
		}
		histogramChunk(dom, mx, my, chunk, vals)
	})
	if err != nil {
		return nil, fmt.Errorf("grid: scanning points: %w", err)
	}
	if workers == 1 {
		return c, nil
	}
	for _, vals := range partials {
		if vals == nil {
			continue
		}
		out := c.vals
		for i, v := range vals {
			out[i] += v
		}
	}
	return c, nil
}
