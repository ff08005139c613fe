package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pool"
)

// AGOptions configures BuildAdaptiveGrid. The zero value reproduces the
// paper's defaults: alpha = 0.5, c = 10, c2 = c/2, m1 from the
// max(10, sqrt(N*eps/c)/4) rule.
type AGOptions struct {
	// M1 fixes the first-level grid size (the paper's A_{m1,c2}
	// notation). When 0, the m1 rule of section IV-B chooses it.
	M1 int
	// Alpha is the fraction of eps spent on first-level counts; 0 means
	// DefaultAlpha. Must lie in (0, 1).
	Alpha float64
	// C is the Guideline 1 constant used by the m1 rule; 0 means DefaultC.
	C float64
	// C2 is the Guideline 2 constant; 0 means C/2.
	C2 float64
	// MaxM2 caps each cell's second-level grid size; 0 means DefaultMaxM2.
	MaxM2 int
	// NBudgetFrac, when positive, spends that fraction of eps on a noisy
	// estimate of N for the m1 rule (see UGOptions.NBudgetFrac).
	NBudgetFrac float64
	// Workers bounds the goroutines used across the whole build: the
	// ingestion scans (gathering or counting, the level-1 histogram and
	// the leaf pass) and the per-cell noise/inference pass. 0 means
	// one worker per CPU; 1 forces the sequential path. Parallel
	// construction requires a noise.Forkable source (noise.NewSource
	// qualifies): each cell draws noise from the sub-stream keyed by
	// its index, and the scan results are exact integer histograms that
	// merge identically under any stream partition — so for a given
	// seed the released synopsis is bit-identical for every Workers
	// value. With a non-Forkable source, Workers > 1 is an error and
	// the zero value falls back to the single-stream sequential path.
	Workers int
	// DisableInference skips the constrained-inference step and answers
	// from raw second-level counts only. It exists for ablation studies
	// (quantifying how much CI contributes to AG); it wastes the level-1
	// budget and should not be used outside experiments.
	DisableInference bool
}

// AdaptiveGrid is the AG synopsis (section IV-B): a coarse m1 x m1 first
// level whose cells are each re-partitioned into an adaptively sized
// m2 x m2 second level, with constrained inference reconciling the two
// levels. Queries are answered from the post-inference leaf counts, whose
// consistency with the first level makes the greedy two-level answering
// strategy equal to a pure leaf sum.
type AdaptiveGrid struct {
	dom   geom.Domain
	eps   float64
	alpha float64
	m1    int

	// cells holds each first-level cell's second level, row-major
	// m1*m1: the prefix table of its post-inference m2 x m2 leaf counts
	// over the cell's rect (its Domain; m2 is its Dims).
	cells     []grid.Prefix
	level1    grid.Prefix // prefix sums over post-inference cell totals
	leafPop   int         // total number of leaf cells (diagnostics)
	maxM2     int         // largest m2 chosen (diagnostics)
	epsLevel  [2]float64  // actual budget split (diagnostics)
	satBacked bool        // level1 adopted from a stored SAT section on decode
}

// BuildAdaptiveGrid constructs an AG synopsis of points over dom under
// eps-differential privacy.
func BuildAdaptiveGrid(points []geom.Point, dom geom.Domain, eps float64, opts AGOptions, src noise.Source) (*AdaptiveGrid, error) {
	return BuildAdaptiveGridSeq(geom.SlicePoints(points), dom, eps, opts, src)
}

// BuildAdaptiveGridSeq is BuildAdaptiveGrid over a streaming point
// source, for datasets that do not fit in memory (the paper's two-pass
// construction). An in-memory source (a geom.SlicePoints or
// geom.Blocks) is scanned in place; any other source is gathered into
// memory by one scan, after which the level-1 histogram and the leaf
// pass run over the gathered points. A source with more than gatherCap
// in-domain points is not kept: both later passes re-scan it, so the
// build holds at most gatherCap points.
func BuildAdaptiveGridSeq(seq geom.PointSeq, dom geom.Domain, eps float64, opts AGOptions, src noise.Source) (*AdaptiveGrid, error) {
	return buildAdaptiveGrid(seq, dom, eps, opts, src, gatherCap)
}

// buildAdaptiveGrid is BuildAdaptiveGridSeq with the gather cap as a
// parameter, so tests can push a small source past it.
func buildAdaptiveGrid(seq geom.PointSeq, dom geom.Domain, eps float64, opts AGOptions, src noise.Source, capPoints int) (*AdaptiveGrid, error) {
	if src == nil {
		return nil, errors.New("core: nil noise source")
	}
	budget, err := noise.NewBudget(eps)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("core: alpha must be in (0,1), got %g", alpha)
	}
	c := opts.C
	if c == 0 {
		c = DefaultC
	}
	c2 := opts.C2
	if c2 == 0 {
		c2 = c / 2
	}
	if !(c > 0) || math.IsInf(c, 0) || !(c2 > 0) || math.IsInf(c2, 0) {
		return nil, fmt.Errorf("core: constants must be positive and finite (c=%g, c2=%g)", c, c2)
	}
	maxM2 := opts.MaxM2
	if maxM2 == 0 {
		maxM2 = DefaultMaxM2
	}
	if maxM2 < 1 {
		return nil, fmt.Errorf("core: MaxM2 must be positive, got %d", maxM2)
	}
	if f := opts.NBudgetFrac; !(f >= 0 && f < 1) {
		return nil, fmt.Errorf("core: NBudgetFrac must be in [0, 1), got %g", opts.NBudgetFrac)
	}

	// Resolve the shared parallelism level up front: the ingestion
	// scans and the per-cell noise pass use the same Workers knob, and
	// Workers > 1 needs a Forkable source for the noise (the scans
	// themselves never touch src).
	forkable, canFork := src.(noise.Forkable)
	workers := opts.Workers
	if !canFork {
		if workers > 1 {
			return nil, errors.New("core: AGOptions.Workers > 1 requires a noise.Forkable source (noise.NewSource provides one)")
		}
		workers = 1
	}
	m1 := opts.M1
	if m1 < 0 {
		return nil, fmt.Errorf("core: m1 must be positive, got %d", m1)
	}

	data, nInt, err := ingest(seq, dom, workers, capPoints, m1 == 0)
	if err != nil {
		return nil, err
	}

	remaining := eps
	if m1 == 0 {
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
			remaining = budget.Remaining()
		}
		m1 = SuggestedM1(n, remaining, c)
	}

	eps1 := alpha * remaining
	eps2 := (1 - alpha) * remaining

	level1, err := grid.FromSeqParallel(dom, m1, m1, data, workers)
	if err != nil {
		return nil, err
	}
	if err := budget.Spend(eps1); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mech1, err := noise.NewMechanism(eps1, 1, src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	noisy1 := level1.Clone()
	mech1.PerturbAll(noisy1.Values())

	// Choose each cell's m2 from its *noisy* count (Guideline 2), so the
	// choice itself consumes no extra budget.
	m2s := make([]int, m1*m1)
	maxChosen := 1
	leafTotal := 0
	for i, v := range noisy1.Values() {
		m2 := SuggestedM2(v, eps2, c2, maxM2)
		m2s[i] = m2
		leafTotal += m2 * m2
		if m2 > maxChosen {
			maxChosen = m2
		}
	}

	// Leaf pass: exact leaf histograms in one flat buffer with per-cell
	// offsets (cache-local, and partial buffers merge in one sweep) —
	// the second of the paper's "two passes over the dataset". Then
	// noise with eps2.
	leafStarts := make([]int, m1*m1+1)
	for i, m2 := range m2s {
		leafStarts[i+1] = leafStarts[i] + m2*m2
	}
	leafFlat := make([]float64, leafTotal)
	leafOf := func(k int) []float64 { return leafFlat[leafStarts[k]:leafStarts[k+1]] }
	if err := leafRescan(data, dom, m1, m2s, leafStarts, leafFlat, workers); err != nil {
		return nil, err
	}
	if err := budget.Spend(eps2); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Second-level noise: each first-level cell is independent, so this
	// pass is cell-parallel (the paper's construction builds every cell's
	// second-level grid in isolation). With a Forkable source, cell k
	// draws from the sub-stream keyed by k — deterministic regardless of
	// scheduling, so every Workers value releases bit-identical noise.
	// A plain Source cannot be shared across goroutines (see
	// noise.Source's concurrency contract); it keeps the legacy
	// single-stream sequential draw order.
	var nonce uint64
	if canFork {
		// Per-build offset for the fork keys: drawn from the advancing
		// parent stream so that reusing one Source across builds yields
		// fresh noise each time (see noise.ForkNonce), while a fresh
		// Source with the same seed still reproduces the build exactly.
		nonce = noise.ForkNonce(src)
	} else {
		mech2, err := noise.NewMechanism(eps2, 1, src)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		for k := 0; k < m1*m1; k++ {
			mech2.PerturbAll(leafOf(k))
		}
	}

	// Constrained inference per first-level cell (section IV-B):
	//   v'  = (a^2 m2^2 * v + (1-a)^2 * sum(u)) / ((1-a)^2 + a^2 m2^2)
	//   u' += (v' - sum(u)) / m2^2
	// (the paper's u' equation omits the 1/m2^2: adding (v' - sum(u))/m2^2
	// to each of the m2^2 leaves adds exactly v' - sum(u), so sum(u') = v').
	ag := &AdaptiveGrid{
		dom:     dom,
		eps:     eps,
		alpha:   alpha,
		m1:      m1,
		cells:   make([]grid.Prefix, m1*m1),
		leafPop: leafTotal,
		maxM2:   maxChosen,
	}
	ag.epsLevel = [2]float64{eps1, eps2}
	totals, err := grid.New(dom, m1, m1)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a2 := alpha * alpha
	b2 := (1 - alpha) * (1 - alpha)
	cellErrs := make([]error, m1*m1)
	pool.For(m1*m1, workers, func(k int) {
		ix, iy := k%m1, k/m1
		m2 := m2s[k]
		leaves := leafOf(k)
		if canFork {
			mech2, err := noise.NewMechanism(eps2, 1, forkable.Fork(nonce+uint64(k)))
			if err != nil {
				cellErrs[k] = err
				return
			}
			mech2.PerturbAll(leaves)
		}
		v := noisy1.At(ix, iy)
		var sumU float64
		for _, u := range leaves {
			sumU += u
		}
		m2sq := float64(m2 * m2)
		denom := b2 + a2*m2sq
		vPrime := (a2*m2sq*v + b2*sumU) / denom
		diff := (vPrime - sumU) / m2sq
		if opts.DisableInference {
			vPrime = sumU
			diff = 0
		}
		cellDom := geom.Domain{Rect: dom.CellRect(ix, iy, m1, m1)}
		leafGrid, err := grid.New(cellDom, m2, m2)
		if err != nil {
			cellErrs[k] = err
			return
		}
		for i, u := range leaves {
			leafGrid.Values()[i] = u + diff
		}
		// The cell total is its leaf table's total, not vPrime: the two
		// differ in the last bits, and the leaf total is what a saved
		// file stores, so a built AG answers like the file it saves.
		ag.cells[k] = grid.NewPrefix(leafGrid)
		totals.Set(ix, iy, ag.cells[k].Total())
	})
	for _, err := range cellErrs {
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	ag.level1 = grid.NewPrefix(totals)
	return ag, nil
}

// Query estimates the number of data points in r. First-level cells fully
// inside r contribute their reconciled totals through a prefix-sum block;
// boundary cells are answered from their second-level leaves with the
// uniformity assumption.
func (a *AdaptiveGrid) Query(r geom.Rect) float64 {
	clipped, ok := a.dom.Clip(r)
	if !ok {
		return 0
	}
	m1 := a.m1
	w, h := a.dom.CellSize(m1, m1)
	bx0 := clampInt(int(math.Floor((clipped.MinX-a.dom.MinX)/w)), 0, m1-1)
	by0 := clampInt(int(math.Floor((clipped.MinY-a.dom.MinY)/h)), 0, m1-1)
	// The high edges are half-open: a rect whose MaxX lands exactly on a
	// cell boundary has zero overlap with the next column, so Ceil-1
	// (clamped against the low edge for zero-extent rects) excludes it.
	// Floor would include a column contributing exactly 0, which costs
	// boundary work and blocks the aligned fast path below.
	bx1 := clampInt(int(math.Ceil((clipped.MaxX-a.dom.MinX)/w))-1, bx0, m1-1)
	by1 := clampInt(int(math.Ceil((clipped.MaxY-a.dom.MinY)/h))-1, by0, m1-1)

	// Aligned fast path: a rect containing every touched first-level
	// cell outright is one O(1) block sum off the level-1 table — no
	// per-boundary-cell work. Full-domain queries and any cell-aligned
	// rect take this branch.
	lo, hi := a.cells[by0*m1+bx0].Domain(), a.cells[by1*m1+bx1].Domain()
	if clipped.ContainsRect(geom.NewRect(lo.MinX, lo.MinY, hi.MaxX, hi.MaxY)) {
		return a.level1.BlockSum(bx0, by0, bx1+1, by1+1)
	}

	// Interior first-level cells (strictly inside the touched range) are
	// fully covered: O(1) via the level-1 prefix table.
	var total float64
	if bx0+1 < bx1 && by0+1 < by1 {
		total += a.level1.BlockSum(bx0+1, by0+1, bx1, by1)
	}

	cellQuery := func(bx, by int) {
		cell := &a.cells[by*m1+bx]
		if clipped.ContainsRect(cell.Domain().Rect) {
			total += cell.Total()
			return
		}
		total += cell.Query(clipped)
	}
	for by := by0; by <= by1; by++ {
		cellQuery(bx0, by)
		if bx1 != bx0 {
			cellQuery(bx1, by)
		}
	}
	for bx := bx0 + 1; bx < bx1; bx++ {
		cellQuery(bx, by0)
		if by1 != by0 {
			cellQuery(bx, by1)
		}
	}
	return total
}

// QueryIter answers r by iterating every touched leaf cell directly —
// the O(touched leaves) baseline the two-level prefix strategy
// replaces, kept as the differential-test and benchmark reference. Leaf
// values are read back out of the per-cell prefix tables one at a time,
// so the answer reflects the same released counts as Query without any
// block-sum shortcuts.
func (a *AdaptiveGrid) QueryIter(r geom.Rect) float64 {
	clipped, ok := a.dom.Clip(r)
	if !ok {
		return 0
	}
	m1 := a.m1
	w, h := a.dom.CellSize(m1, m1)
	bx0 := clampInt(int(math.Floor((clipped.MinX-a.dom.MinX)/w)), 0, m1-1)
	bx1 := clampInt(int(math.Floor((clipped.MaxX-a.dom.MinX)/w)), 0, m1-1)
	by0 := clampInt(int(math.Floor((clipped.MinY-a.dom.MinY)/h)), 0, m1-1)
	by1 := clampInt(int(math.Floor((clipped.MaxY-a.dom.MinY)/h)), 0, m1-1)
	var total float64
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			cell := &a.cells[by*m1+bx]
			cellDom := cell.Domain()
			m2, _ := cell.Dims()
			for ly := 0; ly < m2; ly++ {
				for lx := 0; lx < m2; lx++ {
					f := cellDom.CellRect(lx, ly, m2, m2).OverlapFraction(clipped)
					if f > 0 {
						total += f * cell.BlockSum(lx, ly, lx+1, ly+1)
					}
				}
			}
		}
	}
	return total
}

// SATBacked reports whether the synopsis's level-1 prefix table was
// adopted from a stored summed-area section rather than rebuilt — true
// exactly for synopses decoded from containers carrying the SAT
// trailer.
func (a *AdaptiveGrid) SATBacked() bool { return a.satBacked }

// M1 returns the first-level grid size.
func (a *AdaptiveGrid) M1() int { return a.m1 }

// Alpha returns the budget split parameter.
func (a *AdaptiveGrid) Alpha() float64 { return a.alpha }

// Epsilon returns the total privacy budget consumed.
func (a *AdaptiveGrid) Epsilon() float64 { return a.eps }

// Domain returns the synopsis domain.
func (a *AdaptiveGrid) Domain() geom.Domain { return a.dom }

// TotalEstimate returns the noisy estimate of the dataset size.
func (a *AdaptiveGrid) TotalEstimate() float64 { return a.level1.Total() }

// LeafCells returns the total number of second-level cells in the synopsis.
func (a *AdaptiveGrid) LeafCells() int { return a.leafPop }

// MaxM2 returns the largest second-level grid size chosen by Guideline 2.
func (a *AdaptiveGrid) MaxM2() int { return a.maxM2 }

// CellM2 returns the second-level grid size chosen for first-level cell
// (ix, iy).
func (a *AdaptiveGrid) CellM2(ix, iy int) int {
	if ix < 0 || ix >= a.m1 || iy < 0 || iy >= a.m1 {
		return 0
	}
	m2, _ := a.cells[iy*a.m1+ix].Dims()
	return m2
}

// CellTotal returns the post-inference count of first-level cell (ix,
// iy): the sum of its leaf counts, the same value whether the synopsis
// was built or decoded.
func (a *AdaptiveGrid) CellTotal(ix, iy int) float64 {
	if ix < 0 || ix >= a.m1 || iy < 0 || iy >= a.m1 {
		return 0
	}
	return a.cells[iy*a.m1+ix].Total()
}

// BudgetSplit returns the epsilon spent on the two levels.
func (a *AdaptiveGrid) BudgetSplit() (level1, level2 float64) {
	return a.epsLevel[0], a.epsLevel[1]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
