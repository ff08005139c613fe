package core

import (
	"math"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pointindex"
)

func TestBuildAdaptiveGridValidation(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(1, 100, dom)
	src := noise.NewSource(1)
	cases := []struct {
		name string
		eps  float64
		opts AGOptions
		src  noise.Source
	}{
		{"zero eps", 0, AGOptions{}, src},
		{"nil source", 1, AGOptions{}, nil},
		{"alpha=1", 1, AGOptions{Alpha: 1}, src},
		{"alpha<0", 1, AGOptions{Alpha: -0.5}, src},
		{"negative m1", 1, AGOptions{M1: -2}, src},
		{"negative c", 1, AGOptions{C: -1}, src},
		{"negative c2", 1, AGOptions{C2: -1}, src},
		{"negative maxM2", 1, AGOptions{MaxM2: -1}, src},
		{"NBudgetFrac=1", 1, AGOptions{NBudgetFrac: 1}, src},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildAdaptiveGrid(pts, dom, tc.eps, tc.opts, tc.src); err == nil {
				t.Errorf("accepted, want error")
			}
		})
	}
}

// NaN fails every ordered comparison, so a constant check written as
// "reject c < 0" lets NaN through, and +Inf passes any "c > 0" check;
// either one used to build a degenerate 1x1 grid (UG) or an AG capped
// at m2 = 1, and a NaN NBudgetFrac silently skipped the N estimate.
func TestBuildersRejectNonFiniteConstants(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(1, 100, dom)
	nan, inf := math.NaN(), math.Inf(1)
	ug := func(opts UGOptions) error {
		_, err := BuildUniformGrid(pts, dom, 1, opts, noise.NewSource(1))
		return err
	}
	ag := func(opts AGOptions) error {
		_, err := BuildAdaptiveGrid(pts, dom, 1, opts, noise.NewSource(1))
		return err
	}
	for _, tc := range []struct {
		name  string
		build func() error
	}{
		{"UG C=NaN", func() error { return ug(UGOptions{C: nan}) }},
		{"UG C=+Inf", func() error { return ug(UGOptions{C: inf}) }},
		{"UG C=-Inf", func() error { return ug(UGOptions{C: -inf}) }},
		{"UG NBudgetFrac=NaN", func() error { return ug(UGOptions{NBudgetFrac: nan}) }},
		{"AG C=NaN", func() error { return ag(AGOptions{C: nan}) }},
		{"AG C=+Inf", func() error { return ag(AGOptions{C: inf}) }},
		{"AG C2=NaN", func() error { return ag(AGOptions{C2: nan}) }},
		{"AG C2=+Inf", func() error { return ag(AGOptions{C2: inf}) }},
		{"AG C2=-Inf", func() error { return ag(AGOptions{C2: -inf}) }},
		{"AG NBudgetFrac=NaN", func() error { return ag(AGOptions{NBudgetFrac: nan}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build(); err == nil {
				t.Error("accepted, want error")
			}
		})
	}
}

func TestAGZeroNoiseExactOnLeafAlignedQueries(t *testing.T) {
	dom := geom.MustDomain(0, 0, 8, 8)
	pts := clusteredPoints(11, 4000, dom)
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 4}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := pointindex.New(dom, pts)
	if err != nil {
		t.Fatal(err)
	}
	// First-level cells are 2x2 units; queries aligned to first-level
	// boundaries must be exact under zero noise (CI preserves exactness).
	for _, r := range []geom.Rect{
		geom.NewRect(0, 0, 8, 8),
		geom.NewRect(2, 2, 6, 8),
		geom.NewRect(0, 0, 2, 2),
		geom.NewRect(4, 0, 8, 4),
	} {
		got := ag.Query(r)
		want := float64(idx.Count(r))
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("zero-noise AG Query(%v) = %g, want %g", r, got, want)
		}
	}
}

func TestAGZeroNoiseTotalEstimate(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(12, 3000, dom)
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := ag.TotalEstimate(); math.Abs(got-3000) > 1e-6 {
		t.Errorf("TotalEstimate = %g, want 3000", got)
	}
}

func TestAGConsistencyLeavesSumToCellTotal(t *testing.T) {
	// After constrained inference, each cell's leaves must sum to its
	// reconciled total — with real noise, not just the Zero source. The
	// cell total and the level-1 table are that leaf sum itself, and
	// inference moves every leaf of a cell by the same amount, (v' -
	// sum(u)) / m2^2, against the same build without it.
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := clusteredPoints(13, 5000, dom)
	ag, err := BuildAdaptiveGrid(pts, dom, 0.5, AGOptions{M1: 5}, noise.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := BuildAdaptiveGrid(pts, dom, 0.5, AGOptions{M1: 5, DisableInference: true}, noise.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	for iy := 0; iy < ag.M1(); iy++ {
		for ix := 0; ix < ag.M1(); ix++ {
			cell, rawCell := &ag.cells[iy*ag.m1+ix], &raw.cells[iy*ag.m1+ix]
			leafSum := cell.Total()
			if got := ag.CellTotal(ix, iy); got != leafSum {
				t.Errorf("cell (%d,%d): CellTotal %v != leaves sum %v", ix, iy, got, leafSum)
			}
			if got := ag.level1.BlockSum(ix, iy, ix+1, iy+1); math.Abs(got-leafSum) > 1e-9*(1+math.Abs(leafSum)) {
				t.Errorf("cell (%d,%d): level-1 total %g != leaves sum %g", ix, iy, got, leafSum)
			}
			leaf := func(p *grid.Prefix, lx, ly int) float64 { return p.BlockSum(lx, ly, lx+1, ly+1) }
			shift := leaf(cell, 0, 0) - leaf(rawCell, 0, 0)
			m2, _ := cell.Dims()
			for ly := 0; ly < m2; ly++ {
				for lx := 0; lx < m2; lx++ {
					if d := leaf(cell, lx, ly) - leaf(rawCell, lx, ly); math.Abs(d-shift) > 1e-6*(1+math.Abs(shift)) {
						t.Errorf("cell (%d,%d) leaf (%d,%d): inference shift %g, want %g", ix, iy, lx, ly, d, shift)
					}
				}
			}
		}
	}
}

func TestAGQueryEqualsCellDecomposition(t *testing.T) {
	// The fast path (interior block + boundary cells) must equal the slow
	// path (query every cell's leaves) exactly.
	dom := geom.MustDomain(0, 0, 12, 12)
	pts := clusteredPoints(14, 8000, dom)
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 6}, noise.NewSource(14))
	if err != nil {
		t.Fatal(err)
	}
	slow := func(r geom.Rect) float64 {
		clipped, ok := dom.Clip(r)
		if !ok {
			return 0
		}
		var total float64
		for k := range ag.cells {
			total += ag.cells[k].Query(clipped)
		}
		return total
	}
	for _, r := range []geom.Rect{
		geom.NewRect(0.3, 0.7, 11.2, 11.9),
		geom.NewRect(3.14, 2.71, 8.8, 9.9),
		geom.NewRect(0, 0, 12, 12),
		geom.NewRect(5.5, 5.5, 6.5, 6.5),         // inside a single first-level cell
		geom.NewRect(1.999, 1.999, 2.001, 2.001), // straddles a cell corner
	} {
		got, want := ag.Query(r), slow(r)
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("Query(%v) = %g, slow path = %g", r, got, want)
		}
	}
}

func TestAGAdaptivePartitioning(t *testing.T) {
	// Dense cells must receive finer second-level grids than empty cells.
	dom := geom.MustDomain(0, 0, 10, 10)
	// All 4000 points in the lower-left first-level cell of a 2x2 grid.
	pts := make([]geom.Point, 0, 4000)
	for _, p := range uniformPoints(15, 4000, geom.MustDomain(0, 0, 5, 5)) {
		pts = append(pts, p)
	}
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 2}, noise.NewSource(15))
	if err != nil {
		t.Fatal(err)
	}
	dense := ag.CellM2(0, 0)
	empty := ag.CellM2(1, 1)
	if dense <= empty {
		t.Errorf("dense cell m2 = %d should exceed empty cell m2 = %d", dense, empty)
	}
	if empty > 2 {
		t.Errorf("empty cell m2 = %d, want <= 2 (noise-only counts are small)", empty)
	}
	// Guideline 2 for the dense cell: N' ~ 4000, remaining eps 0.5, c2 5:
	// ceil(sqrt(4000*0.5/5)) = ceil(20) = 20 (+- noise).
	if dense < 17 || dense > 23 {
		t.Errorf("dense cell m2 = %d, want ~20", dense)
	}
}

func TestAGUsesSuggestedM1(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(16, 100000, dom)
	eps := 1.0
	ag, err := BuildAdaptiveGrid(pts, dom, eps, AGOptions{}, noise.NewSource(16))
	if err != nil {
		t.Fatal(err)
	}
	want := SuggestedM1(100000, eps, DefaultC) // sqrt(10000)=100 -> 25
	if got := ag.M1(); got != want {
		t.Errorf("M1 = %d, want %d", got, want)
	}
}

func TestAGBudgetSplit(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(17, 1000, dom)
	ag, err := BuildAdaptiveGrid(pts, dom, 2.0, AGOptions{Alpha: 0.25}, noise.NewSource(17))
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := ag.BudgetSplit()
	if math.Abs(l1-0.5) > 1e-12 || math.Abs(l2-1.5) > 1e-12 {
		t.Errorf("BudgetSplit = (%g, %g), want (0.5, 1.5)", l1, l2)
	}
	if ag.Alpha() != 0.25 {
		t.Errorf("Alpha = %g, want 0.25", ag.Alpha())
	}
}

func TestAGDeterministicGivenSeed(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := clusteredPoints(18, 3000, dom)
	build := func() float64 {
		ag, err := BuildAdaptiveGrid(pts, dom, 0.5, AGOptions{}, noise.NewSource(77))
		if err != nil {
			t.Fatal(err)
		}
		return ag.Query(geom.NewRect(1.2, 3.4, 7.6, 9.8))
	}
	if a, b := build(), build(); a != b {
		t.Errorf("same seed produced different answers: %g vs %g", a, b)
	}
}

func TestAGConstrainedInferenceReducesNoiseOnCellQueries(t *testing.T) {
	// For queries exactly matching a first-level cell, the reconciled
	// count v' must have lower error variance than the raw level-1 count
	// (that is the point of CI). Empirically compare mean squared errors
	// on an empty dataset where the truth is 0.
	dom := geom.MustDomain(0, 0, 4, 4)
	const trials = 300
	var mseCI float64
	const eps = 1.0
	const alpha = 0.5
	for i := 0; i < trials; i++ {
		ag, err := BuildAdaptiveGrid(nil, dom, eps, AGOptions{M1: 2, Alpha: alpha}, noise.NewSource(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		v := ag.CellTotal(0, 0)
		mseCI += v * v
	}
	mseCI /= trials
	// Raw level-1 variance would be 2/(alpha*eps)^2 = 8. CI must do better.
	rawVar := 2 / (alpha * eps) / (alpha * eps)
	if mseCI >= rawVar {
		t.Errorf("CI cell variance %g not below raw level-1 variance %g", mseCI, rawVar)
	}
}

func TestAGM2OneCellStillConsistent(t *testing.T) {
	// Sparse data forces m2 = 1 everywhere; the synopsis must still be
	// consistent and answer queries.
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(19, 5, dom)
	ag, err := BuildAdaptiveGrid(pts, dom, 0.1, AGOptions{M1: 10}, noise.NewSource(19))
	if err != nil {
		t.Fatal(err)
	}
	if got := ag.MaxM2(); got > 2 {
		t.Errorf("MaxM2 = %d on a 5-point dataset, want <= 2", got)
	}
	_ = ag.Query(geom.NewRect(0, 0, 10, 10)) // must not panic
}

func TestAGCellAccessorsOutOfRange(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	ag, err := BuildAdaptiveGrid(nil, dom, 1, AGOptions{M1: 3}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := ag.CellM2(-1, 0); got != 0 {
		t.Errorf("CellM2 out of range = %d, want 0", got)
	}
	if got := ag.CellTotal(3, 0); got != 0 {
		t.Errorf("CellTotal out of range = %g, want 0", got)
	}
}

func TestAGLeafCellsAccounting(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	ag, err := BuildAdaptiveGrid(uniformPoints(20, 10000, dom), dom, 1, AGOptions{M1: 4}, noise.NewSource(20))
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for iy := 0; iy < 4; iy++ {
		for ix := 0; ix < 4; ix++ {
			m2 := ag.CellM2(ix, iy)
			want += m2 * m2
		}
	}
	if got := ag.LeafCells(); got != want {
		t.Errorf("LeafCells = %d, want %d", got, want)
	}
}
