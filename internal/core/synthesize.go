package core

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// The paper's framework (section II-B): "This synopsis can then be used
// either for generating a synthetic dataset, or for answering queries
// directly." This file implements the first use: sampling a synthetic
// point set from a released synopsis. Sampling is post-processing of the
// noisy counts, so it consumes no privacy budget.

// weightedCell pairs a cell rectangle with its (clamped non-negative)
// noisy count.
type weightedCell struct {
	rect   geom.Rect
	weight float64
}

// synthesize draws n points from the density implied by cells: a cell is
// chosen with probability proportional to its clamped count, then a point
// is placed uniformly inside it. n <= 0 draws round(sum of clamped
// counts) points. src supplies the sampling randomness; noise.NewSource
// draws the exact sequence the historical *rand.Rand-based signature
// produced for the same seed.
func synthesize(cells []weightedCell, n int, src noise.Source) ([]geom.Point, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil source")
	}
	cum := make([]float64, len(cells))
	var total float64
	for i, c := range cells {
		total += c.weight
		cum[i] = total
	}
	if total <= 0 {
		// A released synopsis of an empty (or all-noise-negative) dataset:
		// nothing to sample.
		return nil, nil
	}
	if n <= 0 {
		n = int(math.Round(total))
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		u := src.Uniform() * total
		k := searchCum(cum, u)
		r := cells[k].rect
		pts[i] = geom.Point{
			X: r.MinX + src.Uniform()*r.Width(),
			Y: r.MinY + src.Uniform()*r.Height(),
		}
	}
	return pts, nil
}

// searchCum returns the first index with cum[i] > u.
func searchCum(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Synthesize draws a synthetic dataset from the UG synopsis. n <= 0 uses
// the synopsis's own (noisy) estimate of the dataset size. The result is
// differentially private post-processing of the released counts.
func (u *UniformGrid) Synthesize(n int, src noise.Source) ([]geom.Point, error) {
	mx, my := u.mx, u.my
	cells := make([]weightedCell, 0, mx*my)
	for iy := 0; iy < my; iy++ {
		for ix := 0; ix < mx; ix++ {
			w := u.noisy.At(ix, iy)
			if w > 0 {
				cells = append(cells, weightedCell{rect: u.noisy.CellRect(ix, iy), weight: w})
			}
		}
	}
	return synthesize(cells, n, src)
}

// Synthesize draws a synthetic dataset from the AG synopsis using its
// post-inference leaf cells. n <= 0 uses the synopsis's own (noisy)
// estimate of the dataset size.
func (a *AdaptiveGrid) Synthesize(n int, src noise.Source) ([]geom.Point, error) {
	var cells []weightedCell
	for k := range a.cells {
		cell := &a.cells[k]
		m2, _ := cell.Dims()
		for ly := 0; ly < m2; ly++ {
			for lx := 0; lx < m2; lx++ {
				w := cell.BlockSum(lx, ly, lx+1, ly+1)
				if w > 0 {
					r := cell.Domain().CellRect(lx, ly, m2, m2)
					cells = append(cells, weightedCell{rect: r, weight: w})
				}
			}
		}
	}
	return synthesize(cells, n, src)
}
