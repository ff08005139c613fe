package gridnd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/noise"
)

func mustDomain(t *testing.T, lo, hi []float64) Domain {
	t.Helper()
	d, err := NewDomain(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func randomPointsND(seed int64, n, d int, extent float64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for k := range p {
			p[k] = rng.Float64() * extent
		}
		pts[i] = p
	}
	return pts
}

func TestNewDomainValidation(t *testing.T) {
	if _, err := NewDomain(nil, nil); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewDomain([]float64{0}, []float64{0, 1}); err == nil {
		t.Error("mismatched dims accepted")
	}
	if _, err := NewDomain([]float64{1}, []float64{0}); err == nil {
		t.Error("inverted axis accepted")
	}
	if _, err := NewDomain([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("NaN bound accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	dom := mustDomain(t, []float64{0, 0}, []float64{1, 1})
	src := noise.NewSource(1)
	if _, err := BuildFlat(nil, dom, 4, 1, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := BuildFlat(nil, dom, 0, 1, src); err == nil {
		t.Error("zero m accepted")
	}
	if _, err := BuildFlat(nil, dom, 4, 0, src); err == nil {
		t.Error("zero eps accepted")
	}
	if _, err := BuildFlat(nil, dom, 1<<14, 1, src); err == nil {
		t.Error("oversized grid accepted")
	}
	if _, err := BuildHierarchical(nil, dom, 6, 4, 2, 1, src); err == nil {
		t.Error("indivisible branching accepted")
	}
	if _, err := Hierarchical(make([]float64, 16), 0, 4, 2, 2, 1, src); err == nil {
		t.Error("zero dimension accepted")
	}
	t.Run("d=3", func(t *testing.T) {
		dom3 := mustDomain(t, []float64{0, 0, 0}, []float64{1, 1, 1})
		if _, err := BuildFlat(nil, dom3, 4, 1, nil); err == nil {
			t.Error("nil source accepted")
		}
		if _, err := BuildFlat(nil, Domain{}, 4, 1, src); err == nil {
			t.Error("zero-dimensional domain accepted")
		}
		if _, err := BuildFlat(nil, dom3, 0, 1, src); err == nil {
			t.Error("zero m accepted")
		}
		if _, err := BuildFlat(nil, dom3, 4, 0, src); err == nil {
			t.Error("zero eps accepted")
		}
		if _, err := BuildHierarchical(nil, dom3, 4, 3, 2, 1, src); err == nil {
			t.Error("indivisible branching accepted")
		}
		if _, err := BuildHierarchical(nil, dom3, 4, 2, 0, 1, src); err == nil {
			t.Error("zero depth accepted")
		}
		if _, err := BuildHierarchical(nil, dom3, 4, 1, 2, 1, src); err == nil {
			t.Error("branching 1 accepted")
		}
		if _, err := Hierarchical(make([]float64, 63), 3, 4, 2, 2, 1, src); err == nil {
			t.Error("63 leaves accepted for a 4^3 grid")
		}
	})
}

func TestOneDimensionalBasics(t *testing.T) {
	dom := mustDomain(t, []float64{0}, []float64{10})
	pts := [][]float64{{1}, {1.5}, {7}, {9.99}, {15} /* dropped */}
	g, err := BuildFlat(pts, dom, 10, 1, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Total(); math.Abs(got-4) > 1e-9 {
		t.Errorf("Total = %g, want 4", got)
	}
	if got := g.Query(Box{Lo: []float64{0}, Hi: []float64{2}}); math.Abs(got-2) > 1e-9 {
		t.Errorf("Query [0,2] = %g, want 2", got)
	}
	// Bins are [0,1), [1,2), ...: bin 0 is empty and bin 1 holds two
	// points, so [0.5,1.0] covers half of an empty bin and [0.5,1.5] adds
	// half of bin 1.
	if got := g.Query(Box{Lo: []float64{0.5}, Hi: []float64{1.0}}); got != 0 {
		t.Errorf("Query [0.5,1.0] = %g, want 0", got)
	}
	if got := g.Query(Box{Lo: []float64{0.5}, Hi: []float64{1.5}}); math.Abs(got-1) > 1e-9 {
		t.Errorf("Query [0.5,1.5] = %g, want 1", got)
	}
}

// TestMatchesGrid2D cross-validates gridnd at d=2 against internal/grid.
func TestMatchesGrid2D(t *testing.T) {
	const m = 8
	dom2 := geom.MustDomain(0, 0, 10, 10)
	domN := mustDomain(t, []float64{0, 0}, []float64{10, 10})
	rng := rand.New(rand.NewSource(2))

	c, err := grid.New(dom2, m, m)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, m*m)
	for i := range vals {
		vals[i] = rng.Float64() * 10
		// internal/grid is row-major with iy*mx+ix; gridnd with axis 0
		// (x) fastest — identical layout.
		c.Values()[i] = vals[i]
	}
	p2 := grid.NewPrefix(c)
	gn := newGrid(domN, m, vals)

	if math.Abs(p2.Total()-gn.Total()) > 1e-9 {
		t.Fatalf("totals differ: %g vs %g", p2.Total(), gn.Total())
	}
	for trial := 0; trial < 500; trial++ {
		x0, y0 := rng.Float64()*10, rng.Float64()*10
		x1, y1 := rng.Float64()*10, rng.Float64()*10
		r := geom.NewRect(x0, y0, x1, y1)
		want := p2.Query(r)
		got := gn.Query(Box{Lo: []float64{r.MinX, r.MinY}, Hi: []float64{r.MaxX, r.MaxY}})
		if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("trial %d: gridnd %g != grid %g for %v", trial, got, want, r)
		}
	}
}

func Test4DFlatZeroNoise(t *testing.T) {
	dom := mustDomain(t, []float64{0, 0, 0, 0}, []float64{10, 10, 10, 10})
	pts := randomPointsND(4, 5000, 4, 10)
	g, err := BuildFlat(pts, dom, 8, 1, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Total(); math.Abs(got-5000) > 1e-6 {
		t.Errorf("Total = %g, want 5000", got)
	}
	// Uniform data: a half-volume box holds ~half the points.
	got := g.Query(Box{Lo: []float64{0, 0, 0, 0}, Hi: []float64{10, 10, 10, 5}})
	if math.Abs(got-2500) > 150 {
		t.Errorf("half query = %g, want ~2500", got)
	}
}

// cube returns the domain [0, extent]^d.
func cube(t *testing.T, d int, extent float64) Domain {
	t.Helper()
	lo, hi := make([]float64, d), make([]float64, d)
	for k := range hi {
		hi[k] = extent
	}
	return mustDomain(t, lo, hi)
}

func TestHierarchicalConsistency(t *testing.T) {
	for _, tc := range []struct{ d, m, b, depth int }{
		{2, 8, 2, 3},
		{3, 4, 2, 2},
		{4, 8, 2, 3},
	} {
		t.Run(fmt.Sprintf("d=%d", tc.d), func(t *testing.T) {
			pts := randomPointsND(5, 3000, tc.d, 10)
			g, err := BuildHierarchical(pts, cube(t, tc.d, 10), tc.m, tc.b, tc.depth, 1, noise.NewSource(5))
			if err != nil {
				t.Fatal(err)
			}
			tol := 1e-6 * (1 + math.Abs(g.Total()))
			// The 2^d orthants, and the two halves along each axis,
			// partition the domain, so each set must sum to the total.
			var orthants float64
			for mask := 0; mask < 1<<tc.d; mask++ {
				box := Box{Lo: make([]float64, tc.d), Hi: make([]float64, tc.d)}
				for k := 0; k < tc.d; k++ {
					box.Lo[k], box.Hi[k] = 0, 5
					if mask&(1<<k) != 0 {
						box.Lo[k], box.Hi[k] = 5, 10
					}
				}
				orthants += g.Query(box)
			}
			if math.Abs(orthants-g.Total()) > tol {
				t.Errorf("orthants sum %g != total %g", orthants, g.Total())
			}
			for k := 0; k < tc.d; k++ {
				lo, hi := cube(t, tc.d, 10), cube(t, tc.d, 10)
				lo.Hi[k], hi.Lo[k] = 5, 5
				left, right := g.Query(Box(lo)), g.Query(Box(hi))
				if math.Abs(left+right-g.Total()) > tol {
					t.Errorf("axis %d halves %g + %g != total %g", k, left, right, g.Total())
				}
			}
		})
	}
}

// naiveQuery is the brute-force uniformity estimate over [0, extent]^d:
// every cell's value weighted by the fraction of the cell box covers.
func naiveQuery(vals []float64, d, m int, extent float64, box Box) float64 {
	w := extent / float64(m)
	idx := make([]int, d)
	var total float64
	for _, v := range vals {
		frac := 1.0
		for k, i := range idx {
			lo, hi := float64(i)*w, float64(i+1)*w
			frac *= math.Max(0, math.Min(hi, box.Hi[k])-math.Max(lo, box.Lo[k])) / w
		}
		total += frac * v
		advance(idx, m)
	}
	return total
}

func TestQueryMatchesNaive(t *testing.T) {
	const m = 6
	for d := 1; d <= 4; d++ {
		rng := rand.New(rand.NewSource(3))
		n, err := cellsFor(m, d)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 10
		}
		g := newGrid(cube(t, d, 10), m, vals)
		for trial := 0; trial < 500; trial++ {
			box := Box{Lo: make([]float64, d), Hi: make([]float64, d)}
			for k := 0; k < d; k++ {
				a, b := rng.Float64()*10, rng.Float64()*10
				box.Lo[k], box.Hi[k] = math.Min(a, b), math.Max(a, b)
			}
			got, want := g.Query(box), naiveQuery(vals, d, m, 10, box)
			if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
				t.Fatalf("d=%d trial %d: Query(%v) = %g, naive %g", d, trial, box, got, want)
			}
		}
	}
}

func TestQueryEdgeCases(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = 1
	}
	g := newGrid(cube(t, 3, 4), 4, vals)
	for _, tc := range []struct {
		name   string
		lo, hi []float64
		want   float64
	}{
		{"full", []float64{0, 0, 0}, []float64{4, 4, 4}, 64},
		{"outside", []float64{9, 9, 9}, []float64{10, 10, 10}, 0},
		{"degenerate", []float64{1, 1, 1}, []float64{1, 2, 2}, 0},
		{"half cell", []float64{0, 0, 0}, []float64{0.5, 1, 1}, 0.5},
		{"NaN lo", []float64{math.NaN(), 0, 0}, []float64{4, 4, 4}, math.NaN()},
		{"NaN hi", []float64{0, 0, 0}, []float64{4, math.NaN(), 4}, math.NaN()},
	} {
		got := g.Query(Box{Lo: tc.lo, Hi: tc.hi})
		if math.IsNaN(tc.want) != math.IsNaN(got) || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s query = %g, want %g", tc.name, got, tc.want)
		}
	}
}

// TestNaNCoordinatesDropped: a point with a NaN coordinate is outside
// every domain, so binning drops it rather than counting it into a cell.
func TestNaNCoordinatesDropped(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		pts  [][]float64
		want float64
	}{
		{"d=1", [][]float64{{1}, {nan}, {2}}, 2},
		{"d=2 first axis", [][]float64{{1, 1}, {nan, 5}, {2, 2}}, 2},
		{"d=2 second axis", [][]float64{{1, 1}, {5, nan}, {2, 2}}, 2},
		{"d=3", [][]float64{{1, 1, 1}, {nan, nan, nan}, {2, 2, 2}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dom := cube(t, len(tc.pts[0]), 10)
			for _, p := range tc.pts {
				want := true
				for _, v := range p {
					want = want && !math.IsNaN(v)
				}
				if got := dom.Contains(p); got != want {
					t.Errorf("Contains(%v) = %v, want %v", p, got, want)
				}
			}
			flat, err := BuildFlat(tc.pts, dom, 4, 1, noise.Zero)
			if err != nil {
				t.Fatal(err)
			}
			hier, err := BuildHierarchical(tc.pts, dom, 4, 2, 2, 1, noise.Zero)
			if err != nil {
				t.Fatal(err)
			}
			for name, g := range map[string]*Grid{"flat": flat, "hierarchical": hier} {
				if got := g.Total(); math.Abs(got-tc.want) > 1e-9 {
					t.Errorf("%s Total = %g, want %g", name, got, tc.want)
				}
			}
		})
	}
}

// TestFlatZeroNoiseExactAligned checks a cell-aligned box against a
// direct count of clustered points in 3D.
func TestFlatZeroNoiseExactAligned(t *testing.T) {
	dom := cube(t, 3, 8)
	rng := rand.New(rand.NewSource(2))
	centers, sigmas := []float64{2.4, 4.8, 3.2}, []float64{0.8, 0.64, 0.96}
	var pts [][]float64
	for len(pts) < 20000 {
		p := make([]float64, 3)
		uniform := rng.Intn(4) == 0
		for k := range p {
			if uniform {
				p[k] = rng.Float64() * 8
			} else {
				p[k] = centers[k] + rng.NormFloat64()*sigmas[k]
			}
		}
		if dom.Contains(p) {
			pts = append(pts, p)
		}
	}
	g, err := BuildFlat(pts, dom, 8, 1, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Total(); math.Abs(got-20000) > 1e-6 {
		t.Errorf("Total = %g, want 20000", got)
	}
	q := Domain{Lo: []float64{1, 2, 3}, Hi: []float64{5, 6, 7}}
	var want float64
	for _, p := range pts {
		if q.Contains(p) {
			want++
		}
	}
	// Points exactly on a face count in the direct tally but may be
	// binned into the neighbouring cell; allow 1% slack.
	if got := g.Query(Box(q)); math.Abs(got-want) > want*0.01+5 {
		t.Errorf("Query = %g, want ~%g", got, want)
	}
}

func TestDeterministic(t *testing.T) {
	dom := cube(t, 3, 10)
	pts := randomPointsND(6, 2000, 3, 10)
	q := Box{Lo: []float64{1, 2, 3}, Hi: []float64{7, 8, 9}}
	build := func() (float64, float64) {
		flat, err := BuildFlat(pts, dom, 8, 0.5, noise.NewSource(66))
		if err != nil {
			t.Fatal(err)
		}
		hier, err := BuildHierarchical(pts, dom, 8, 2, 3, 0.5, noise.NewSource(66))
		if err != nil {
			t.Fatal(err)
		}
		return flat.Query(q), hier.Query(q)
	}
	f1, h1 := build()
	f2, h2 := build()
	if f1 != f2 || h1 != h2 {
		t.Errorf("same seed, different results: flat %g vs %g, hierarchical %g vs %g", f1, f2, h1, h2)
	}
}

func TestQueryDimensionMismatch(t *testing.T) {
	dom := mustDomain(t, []float64{0, 0}, []float64{1, 1})
	g, err := BuildFlat(nil, dom, 2, 1, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Query(Box{Lo: []float64{0}, Hi: []float64{1}}); got != 0 {
		t.Errorf("mismatched query = %g, want 0", got)
	}
}

func TestHierarchicalZeroNoiseExact(t *testing.T) {
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			pts := randomPointsND(6, 2000, d, 10)
			g, err := BuildHierarchical(pts, cube(t, d, 10), 8, 2, 3, 1, noise.Zero)
			if err != nil {
				t.Fatal(err)
			}
			if got := g.Total(); math.Abs(got-2000) > 1e-6 {
				t.Errorf("Total = %g, want 2000", got)
			}
		})
	}
}

// FuzzQueryMatchesNaive: at d = 1, 2 and 3, the summed-area answer to an
// arbitrary box equals the per-cell reference, and a NaN bound anywhere
// yields NaN rather than a panic.
func FuzzQueryMatchesNaive(f *testing.F) {
	const m, extent = 5, 10.0
	grids := make([]*Grid, 4)
	cells := make([][]float64, 4)
	rng := rand.New(rand.NewSource(8))
	for d := 1; d <= 3; d++ {
		n, err := cellsFor(m, d)
		if err != nil {
			f.Fatal(err)
		}
		cells[d] = make([]float64, n)
		for i := range cells[d] {
			cells[d][i] = rng.Float64()*40 - 10
		}
		lo, hi := make([]float64, d), make([]float64, d)
		for k := range hi {
			hi[k] = extent
		}
		dom, err := NewDomain(lo, hi)
		if err != nil {
			f.Fatal(err)
		}
		grids[d] = newGrid(dom, m, cells[d])
	}

	f.Add(uint8(1), 0.0, 10.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), 1.5, 7.25, 2.0, 9.0, 0.0, 0.0)
	f.Add(uint8(3), -5.0, 15.0, 3.3, 3.3, 0.1, 9.9)
	f.Add(uint8(2), math.NaN(), 5.0, 0.0, 5.0, 0.0, 0.0)
	f.Add(uint8(3), 0.0, 4.0, 0.0, 4.0, 1.0, math.NaN())

	f.Fuzz(func(t *testing.T, dim uint8, lo0, hi0, lo1, hi1, lo2, hi2 float64) {
		d := int(dim)%3 + 1
		los, his := []float64{lo0, lo1, lo2}[:d], []float64{hi0, hi1, hi2}[:d]
		box := Box{Lo: los, Hi: his}
		hasNaN := false
		for k := 0; k < d; k++ {
			hasNaN = hasNaN || math.IsNaN(los[k]) || math.IsNaN(his[k])
		}
		got := grids[d].Query(box)
		if hasNaN {
			if !math.IsNaN(got) {
				t.Fatalf("d=%d Query(%v) = %g, want NaN", d, box, got)
			}
			return
		}
		want := naiveQuery(cells[d], d, m, extent, box)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("d=%d Query(%v) = %g, naive %g", d, box, got, want)
		}
	})
}
