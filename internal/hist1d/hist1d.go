// Package hist1d implements one-dimensional differentially private
// histograms — flat (per-bin Laplace) and hierarchical with constrained
// inference (Hay et al., VLDB 2010). It exists to measure the paper's
// section IV-C claim empirically: binary hierarchies give large gains for
// 1D range queries, gains that mostly vanish in 2D and keep shrinking
// with dimension (see eval.HierarchyGainByDimension). Hist keeps its own
// binning and within-bin interpolation over grid.SAT, the repository's
// one summed-area table, at d = 1; the hierarchy itself is
// gridnd.Hierarchical at dimension 1.
package hist1d

import (
	"errors"
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/gridnd"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// Hist is a 1D histogram over [lo, hi] with uniformity-estimate range
// queries answered from its bins' summed-area table (grid.SAT at
// d = 1). eps is the privacy budget the release spent; it is zero for
// exact histograms, which is also what marks them unserializable (see
// serialize.go).
type Hist struct {
	lo, hi float64
	eps    float64
	prefix []float64 // prefix[i] = sum of bins < i
}

// FromValues wraps existing bin values (e.g. exact counts used as ground
// truth in experiments) into a queryable histogram. It adds no noise and
// does not retain vals.
func FromValues(lo, hi float64, vals []float64) (*Hist, error) {
	if !(hi > lo) {
		return nil, fmt.Errorf("hist1d: invalid range [%g, %g]", lo, hi)
	}
	if len(vals) == 0 {
		return nil, errors.New("hist1d: no bins")
	}
	return &Hist{lo: lo, hi: hi, prefix: prefixSums(vals)}, nil
}

// Exact builds the exact (non-private) histogram of xs, for ground truth.
func Exact(xs []float64, lo, hi float64, bins int) (*Hist, error) {
	if !(hi > lo) {
		return nil, fmt.Errorf("hist1d: invalid range [%g, %g]", lo, hi)
	}
	if bins < 1 {
		return nil, fmt.Errorf("hist1d: bins must be positive, got %d", bins)
	}
	return &Hist{lo: lo, hi: hi, prefix: prefixSums(histogram(xs, lo, hi, bins))}, nil
}

// Bins returns the number of bins.
func (h *Hist) Bins() int { return len(h.prefix) - 1 }

// Total returns the sum of all bins.
func (h *Hist) Total() float64 { return h.prefix[len(h.prefix)-1] }

// Epsilon returns the privacy budget spent on the release, zero for
// exact (non-private) histograms.
func (h *Hist) Epsilon() float64 { return h.eps }

// Query estimates the count in the rectangle's x-extent: the histogram
// is an axis synopsis, so a 2D query projects onto it and the y-extent
// is ignored. This is what lets a Hist flow through every rect-query
// surface (LoadSynopsis, dpserve) alongside the 2D kinds.
func (h *Hist) Query(r geom.Rect) float64 { return h.Range(r.MinX, r.MaxX) }

// Range estimates the count in [a, b] with fractional bin coverage. A
// NaN bound yields NaN, as every other synopsis kind answers a NaN rect.
func (h *Hist) Range(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if b < a {
		a, b = b, a
	}
	a = math.Max(a, h.lo)
	b = math.Min(b, h.hi)
	if b <= a {
		return 0
	}
	n := float64(h.Bins())
	w := (h.hi - h.lo) / n
	la := (a - h.lo) / w
	lb := (b - h.lo) / w
	la = math.Min(math.Max(la, 0), n)
	lb = math.Min(math.Max(lb, 0), n)
	// Continuous prefix: interpolate within the boundary bins.
	return h.cumAt(lb) - h.cumAt(la)
}

// cumAt returns the uniformity-interpolated cumulative count at the
// continuous bin coordinate t in [0, bins].
func (h *Hist) cumAt(t float64) float64 {
	i := int(math.Floor(t))
	if i >= h.Bins() {
		return h.prefix[h.Bins()]
	}
	frac := t - float64(i)
	return h.prefix[i] + frac*(h.prefix[i+1]-h.prefix[i])
}

// prefixSums returns the summed-area table of bin values.
func prefixSums(vals []float64) []float64 {
	return grid.NewSAT([]int{len(vals)}, vals).Sums()
}

// histogram counts xs into bins over [lo, hi]; out-of-range and NaN
// values are dropped.
func histogram(xs []float64, lo, hi float64, bins int) []float64 {
	vals := make([]float64, bins)
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		if !(x >= lo && x <= hi) {
			continue
		}
		i := int((x - lo) / w)
		if i >= bins {
			i = bins - 1
		}
		vals[i]++
	}
	return vals
}

func validate(lo, hi float64, bins int, eps float64, src noise.Source) error {
	if src == nil {
		return errors.New("hist1d: nil noise source")
	}
	if !(hi > lo) {
		return fmt.Errorf("hist1d: invalid range [%g, %g]", lo, hi)
	}
	if bins < 1 {
		return fmt.Errorf("hist1d: bins must be positive, got %d", bins)
	}
	if !(eps > 0) {
		return fmt.Errorf("hist1d: epsilon must be positive, got %g", eps)
	}
	return nil
}

// BuildFlat releases a flat eps-DP histogram: every bin gets independent
// Lap(1/eps) noise (the 1D analogue of UG with a fixed grid size).
func BuildFlat(xs []float64, lo, hi float64, bins int, eps float64, src noise.Source) (*Hist, error) {
	if err := validate(lo, hi, bins, eps, src); err != nil {
		return nil, err
	}
	vals := histogram(xs, lo, hi, bins)
	mech, err := noise.NewMechanism(eps, 1, src)
	if err != nil {
		return nil, fmt.Errorf("hist1d: %w", err)
	}
	mech.PerturbAll(vals)
	return &Hist{lo: lo, hi: hi, eps: eps, prefix: prefixSums(vals)}, nil
}

// BuildHierarchical releases an eps-DP histogram through a b-ary
// hierarchy of the given depth (leaf level included) with eps/depth per
// level and constrained inference — Hay et al.'s method, which the
// paper's recursive-partitioning baselines generalize to 2D. bins must
// equal branching^(depth-1) * topBins for integer level sizes; topBins is
// inferred and must be >= 1.
func BuildHierarchical(xs []float64, lo, hi float64, bins, branching, depth int, eps float64, src noise.Source) (*Hist, error) {
	if err := validate(lo, hi, bins, eps, src); err != nil {
		return nil, err
	}
	est, err := gridnd.Hierarchical(histogram(xs, lo, hi, bins), 1, bins, branching, depth, eps, src)
	if err != nil {
		return nil, fmt.Errorf("hist1d: %w", err)
	}
	return &Hist{lo: lo, hi: hi, eps: eps, prefix: prefixSums(est)}, nil
}
