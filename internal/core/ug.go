package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// UGOptions configures BuildUniformGrid. The zero value reproduces the
// paper's defaults: Guideline 1 grid size with c = 10 and the true point
// count used for the size formula.
type UGOptions struct {
	// GridSize fixes the grid size m explicitly (the paper's U_m
	// notation). When 0, Guideline 1 chooses it.
	GridSize int
	// C is the Guideline 1 constant; 0 means DefaultC.
	C float64
	// NBudgetFrac is the fraction of eps spent on a noisy estimate of N
	// for the Guideline 1 formula. The paper notes "obtaining a noisy
	// estimate of N using a very small portion of the total privacy
	// budget suffices". 0 uses the true N for the formula (matching the
	// paper's experiments) and spends the whole budget on cell counts;
	// set e.g. 0.02 for an end-to-end differentially private pipeline.
	NBudgetFrac float64
	// AspectAware distributes the cell budget so that cells are square
	// in data units (mx/my ~ domain width/height with mx*my ~ m^2),
	// instead of the paper's square m x m grid. An extension beyond the
	// paper; eval.AblationAspect measures its effect on wide domains
	// such as checkin's 360 x 150.
	AspectAware bool
	// Workers bounds the goroutines used by the ingestion scans (the
	// counting and gathering pass when GridSize is 0, and the histogram
	// pass). 0 means one worker per CPU; 1 forces the sequential scan.
	// Every value releases the bit-identical synopsis: cell counts are
	// sums of exact integers, so partial histograms merge to the same
	// totals regardless of how the stream was split, and the noise draw
	// order from src never changes. Unlike AGOptions.Workers this needs no
	// Forkable source — UG's noise is applied after the scans, on the
	// calling goroutine.
	Workers int
}

// UniformGrid is the UG synopsis: an equi-width grid of Laplace-noised
// counts (section IV-A; m x m in the paper, optionally mx x my with
// square data-unit cells under UGOptions.AspectAware). Queries are
// answered with the uniformity assumption for partially covered cells.
type UniformGrid struct {
	dom       geom.Domain
	eps       float64
	m         int // nominal Guideline 1 size
	mx, my    int // actual grid dimensions (mx = my = m unless aspect-aware)
	noisy     *grid.Counts
	prefix    grid.Prefix
	satBacked bool // prefix adopted from a stored SAT section on decode
}

// BuildUniformGrid constructs a UG synopsis of points over dom under
// eps-differential privacy. Points outside dom are ignored. src supplies
// the noise randomness.
func BuildUniformGrid(points []geom.Point, dom geom.Domain, eps float64, opts UGOptions, src noise.Source) (*UniformGrid, error) {
	return BuildUniformGridSeq(geom.SlicePoints(points), dom, eps, opts, src)
}

// BuildUniformGridSeq is BuildUniformGrid over a streaming point source,
// for datasets that do not fit in memory (the paper's single-scan
// construction). With GridSize fixed the histogram is one direct scan
// of the source. When GridSize is 0 the grid size needs N first: the
// one scan that counts a streamed source also gathers its in-domain
// points, and the histogram runs over them; past gatherCap in-domain
// points nothing is kept and the histogram re-scans the source.
func BuildUniformGridSeq(seq geom.PointSeq, dom geom.Domain, eps float64, opts UGOptions, src noise.Source) (*UniformGrid, error) {
	return buildUniformGrid(seq, dom, eps, opts, src, gatherCap)
}

// buildUniformGrid is BuildUniformGridSeq with the gather cap as a
// parameter, so tests can push a small source past it.
func buildUniformGrid(seq geom.PointSeq, dom geom.Domain, eps float64, opts UGOptions, src noise.Source, capPoints int) (*UniformGrid, error) {
	if src == nil {
		return nil, errors.New("core: nil noise source")
	}
	budget, err := noise.NewBudget(eps)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if f := opts.NBudgetFrac; !(f >= 0 && f < 1) {
		return nil, fmt.Errorf("core: NBudgetFrac must be in [0, 1), got %g", opts.NBudgetFrac)
	}
	c := opts.C
	if c == 0 {
		c = DefaultC
	}
	if !(c > 0) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("core: c must be positive and finite, got %g", c)
	}

	m := opts.GridSize
	cellEps := eps
	data := seq
	if m == 0 {
		var nInt int64
		if data, nInt, err = ingest(seq, dom, opts.Workers, capPoints, true); err != nil {
			return nil, err
		}
		n := float64(nInt)
		if opts.NBudgetFrac > 0 {
			nEps, err := budget.SpendFraction(opts.NBudgetFrac)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			nMech, err := noise.NewMechanism(nEps, 1, src)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			n = math.Max(0, nMech.Perturb(n))
			cellEps = budget.Remaining()
		}
		m = SuggestedUGSize(n, cellEps, c)
	} else if m < 0 {
		return nil, fmt.Errorf("core: grid size must be positive, got %d", m)
	}

	mx, my := m, m
	if opts.AspectAware {
		mx, my = aspectDims(m, dom)
	}

	if err := budget.Spend(cellEps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	counts, err := grid.FromSeqParallel(dom, mx, my, data, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mech, err := noise.NewMechanism(cellEps, 1, src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mech.PerturbAll(counts.Values())

	return &UniformGrid{
		dom:    dom,
		eps:    eps,
		m:      m,
		mx:     mx,
		my:     my,
		noisy:  counts,
		prefix: grid.NewPrefix(counts),
	}, nil
}

// aspectDims splits a total cell budget of m^2 into mx x my with cells
// square in data units: mx/my ~ W/H, mx*my ~ m^2.
func aspectDims(m int, dom geom.Domain) (mx, my int) {
	ratio := math.Sqrt(dom.Width() / dom.Height())
	mx = int(math.Round(float64(m) * ratio))
	if mx < 1 {
		mx = 1
	}
	my = int(math.Round(float64(m*m) / float64(mx)))
	if my < 1 {
		my = 1
	}
	return mx, my
}

// Query estimates the number of data points in r.
func (u *UniformGrid) Query(r geom.Rect) float64 { return u.prefix.Query(r) }

// QueryIter answers r by iterating the covered cells directly — the
// O(covered cells) baseline the prefix path replaces. It exists as the
// differential-test and benchmark reference: the SAT-backed O(1) path
// must agree with it to within float-summation reordering.
func (u *UniformGrid) QueryIter(r geom.Rect) float64 { return u.noisy.QueryIter(r) }

// SATBacked reports whether the synopsis's prefix table was adopted
// from a stored summed-area section rather than rebuilt from counts —
// true exactly for synopses decoded from containers carrying the SAT
// trailer.
func (u *UniformGrid) SATBacked() bool { return u.satBacked }

// GridSize returns the nominal grid size m (Guideline 1's value).
func (u *UniformGrid) GridSize() int { return u.m }

// Dims returns the actual grid dimensions, which differ from
// (GridSize, GridSize) only under UGOptions.AspectAware.
func (u *UniformGrid) Dims() (mx, my int) { return u.mx, u.my }

// Epsilon returns the total privacy budget the synopsis consumed.
func (u *UniformGrid) Epsilon() float64 { return u.eps }

// Domain returns the synopsis domain.
func (u *UniformGrid) Domain() geom.Domain { return u.dom }

// TotalEstimate returns the noisy estimate of the dataset size (the sum of
// all noisy cell counts).
func (u *UniformGrid) TotalEstimate() float64 { return u.prefix.Total() }
