package hierarchy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pointindex"
	"github.com/dpgrid/dpgrid/internal/pool"
)

func uniformPoints(seed int64, n int, dom geom.Domain) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: dom.MinX + rng.Float64()*dom.Width(),
			Y: dom.MinY + rng.Float64()*dom.Height(),
		}
	}
	return pts
}

func TestBuildHierarchyValidation(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(1, 100, dom)
	src := noise.NewSource(1)
	cases := []struct {
		name string
		eps  float64
		opts Options
		src  noise.Source
	}{
		{"zero eps", 0, Options{GridSize: 8, Branching: 2, Depth: 2}, src},
		{"nil source", 1, Options{GridSize: 8, Branching: 2, Depth: 2}, nil},
		{"zero grid", 1, Options{GridSize: 0, Branching: 2, Depth: 2}, src},
		{"zero depth", 1, Options{GridSize: 8, Branching: 2, Depth: 0}, src},
		{"branching 1", 1, Options{GridSize: 8, Branching: 1, Depth: 2}, src},
		{"indivisible", 1, Options{GridSize: 9, Branching: 2, Depth: 2}, src},
		{"too deep", 1, Options{GridSize: 4, Branching: 2, Depth: 4}, src},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildHierarchy(pts, dom, tc.eps, tc.opts, tc.src); err == nil {
				t.Error("accepted, want error")
			}
		})
	}
}

func TestHierarchyLevelSizes(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	h, err := BuildHierarchy(nil, dom, 1, Options{GridSize: 360, Branching: 2, Depth: 3}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{360, 180, 90} // the paper's H_{2,3} example
	got := h.LevelSizes()
	if len(got) != len(want) {
		t.Fatalf("LevelSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LevelSizes = %v, want %v", got, want)
		}
	}
}

func TestHierarchyZeroNoiseExact(t *testing.T) {
	dom := geom.MustDomain(0, 0, 8, 8)
	pts := uniformPoints(2, 3000, dom)
	h, err := BuildHierarchy(pts, dom, 1, Options{GridSize: 8, Branching: 2, Depth: 3}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := pointindex.New(dom, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []geom.Rect{
		geom.NewRect(0, 0, 8, 8),
		geom.NewRect(1, 1, 5, 7),
		geom.NewRect(0, 0, 1, 1),
	} {
		got := h.Query(r)
		want := float64(idx.Count(r))
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("zero-noise Query(%v) = %g, want %g", r, got, want)
		}
	}
}

func TestHierarchyDepthOneIsUG(t *testing.T) {
	// Depth 1 spends the whole budget on the leaf grid — same structure
	// as UG. Zero-noise answers must be exact.
	dom := geom.MustDomain(0, 0, 4, 4)
	pts := uniformPoints(3, 500, dom)
	h, err := BuildHierarchy(pts, dom, 1, Options{GridSize: 4, Depth: 1}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.TotalEstimate(); math.Abs(got-500) > 1e-9 {
		t.Errorf("TotalEstimate = %g, want 500", got)
	}
}

func TestHierarchyCIReducesFullDomainError(t *testing.T) {
	// For the full-domain query, a depth-3 hierarchy's reconciled answer
	// uses the top level (variance (3/eps)^2*2 per top cell, few cells)
	// and must beat a flat grid with the same per-level budget eps/3
	// answered by summing all leaves. Empty data; truth 0.
	dom := geom.MustDomain(0, 0, 1, 1)
	const eps = 1.0
	const trials = 150
	full := geom.NewRect(0, 0, 1, 1)
	var mseH, mseFlat float64
	for i := 0; i < trials; i++ {
		h, err := BuildHierarchy(nil, dom, eps, Options{GridSize: 16, Branching: 2, Depth: 3}, noise.NewSource(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		v := h.Query(full)
		mseH += v * v

		// Flat 16x16 grid with only eps/3 (what the leaf level alone gets).
		hFlat, err := BuildHierarchy(nil, dom, eps/3, Options{GridSize: 16, Depth: 1}, noise.NewSource(int64(i+10000)))
		if err != nil {
			t.Fatal(err)
		}
		vf := hFlat.Query(full)
		mseFlat += vf * vf
	}
	if mseH >= mseFlat {
		t.Errorf("hierarchy full-domain MSE %g not below leaf-only MSE %g", mseH/trials, mseFlat/trials)
	}
}

func TestHierarchyDeterministic(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(4, 2000, dom)
	build := func() float64 {
		h, err := BuildHierarchy(pts, dom, 0.5, Options{GridSize: 16, Branching: 4, Depth: 2}, noise.NewSource(55))
		if err != nil {
			t.Fatal(err)
		}
		return h.Query(geom.NewRect(1.1, 2.2, 8.8, 9.9))
	}
	if a, b := build(), build(); a != b {
		t.Errorf("same seed, different results: %g vs %g", a, b)
	}
}

func TestHierarchyPaperConfigurations(t *testing.T) {
	// All Figure 3 configurations must build on a 360 base grid.
	dom := geom.MustDomain(0, 0, 360, 150)
	pts := uniformPoints(5, 1000, dom)
	configs := []Options{
		{GridSize: 360, Branching: 2, Depth: 4},
		{GridSize: 360, Branching: 2, Depth: 3},
		{GridSize: 360, Branching: 3, Depth: 3},
		{GridSize: 360, Branching: 4, Depth: 2},
		{GridSize: 360, Branching: 5, Depth: 2},
		{GridSize: 360, Branching: 6, Depth: 2},
	}
	for _, cfg := range configs {
		if _, err := BuildHierarchy(pts, dom, 0.1, cfg, noise.NewSource(6)); err != nil {
			t.Errorf("H_{%d,%d}: %v", cfg.Branching, cfg.Depth, err)
		}
	}
}

func TestHierarchyAccessors(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	h, err := BuildHierarchy(nil, dom, 0.7, Options{GridSize: 8, Branching: 2, Depth: 2}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epsilon() != 0.7 {
		t.Errorf("Epsilon = %g, want 0.7", h.Epsilon())
	}
	if h.Domain() != dom {
		t.Errorf("Domain = %v, want %v", h.Domain(), dom)
	}
	// LevelSizes returns a copy: mutating it must not corrupt the synopsis.
	ls := h.LevelSizes()
	ls[0] = 999
	if h.LevelSizes()[0] == 999 {
		t.Error("LevelSizes exposes internal state")
	}
}

func TestQueryBatchMatchesQuery(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	pts := uniformPoints(9, 5000, dom)
	h, err := BuildHierarchy(pts, dom, 1, Options{GridSize: 64, Branching: 2, Depth: 3}, noise.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	rects := make([]geom.Rect, 300)
	for i := range rects {
		rects[i] = geom.NewRect(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
	}
	got := pool.Map(rects, 0, h.Query)
	if len(got) != len(rects) {
		t.Fatalf("%d results for %d rects", len(got), len(rects))
	}
	for i, r := range rects {
		if want := h.Query(r); got[i] != want {
			t.Fatalf("rect %d: batch %v != single %v", i, got[i], want)
		}
	}
}
