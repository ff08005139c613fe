package core

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pool"
)

func parallelTestPoints(n int, seed int64, dom geom.Domain) []geom.Point {
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

// The acceptance criterion of the parallel build: for the same seed,
// every Workers value must release the bit-identical synopsis.
func TestParallelAGBitIdentical(t *testing.T) {
	dom, _ := geom.NewDomain(0, 0, 100, 100)
	pts := parallelTestPoints(20000, 1, dom)
	opts := AGOptions{M1: 8}

	build := func(workers int) *AdaptiveGrid {
		o := opts
		o.Workers = workers
		ag, err := BuildAdaptiveGrid(pts, dom, 1, o, noise.NewSource(99))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ag
	}
	ref := build(1)
	for _, workers := range []int{0, 2, 3, 8, runtime.GOMAXPROCS(0) * 2} {
		got := build(workers)
		if got.M1() != ref.M1() {
			t.Fatalf("workers=%d: m1 %d != %d", workers, got.M1(), ref.M1())
		}
		for iy := 0; iy < ref.M1(); iy++ {
			for ix := 0; ix < ref.M1(); ix++ {
				if got.CellM2(ix, iy) != ref.CellM2(ix, iy) {
					t.Fatalf("workers=%d cell (%d,%d): m2 %d != %d",
						workers, ix, iy, got.CellM2(ix, iy), ref.CellM2(ix, iy))
				}
				if got.CellTotal(ix, iy) != ref.CellTotal(ix, iy) {
					t.Fatalf("workers=%d cell (%d,%d): total %v != %v (not bit-identical)",
						workers, ix, iy, got.CellTotal(ix, iy), ref.CellTotal(ix, iy))
				}
			}
		}
		// Leaf-level agreement: random queries must match exactly, not
		// merely within tolerance.
		qrng := rand.New(rand.NewSource(5))
		for q := 0; q < 200; q++ {
			x0, y0 := qrng.Float64()*100, qrng.Float64()*100
			x1, y1 := qrng.Float64()*100, qrng.Float64()*100
			r := geom.NewRect(x0, y0, x1, y1)
			if a, b := got.Query(r), ref.Query(r); a != b {
				t.Fatalf("workers=%d query %v: %v != %v (not bit-identical)", workers, r, a, b)
			}
		}
	}
}

// With the m1 rule and N-estimate enabled, the pre-parallel budget draws
// come from the parent stream; determinism must survive those too.
func TestParallelAGBitIdenticalWithDefaults(t *testing.T) {
	dom, _ := geom.NewDomain(-50, -20, 70, 90)
	pts := parallelTestPoints(30000, 2, dom)
	opts := AGOptions{NBudgetFrac: 0.02}

	ref, err := BuildAdaptiveGrid(pts, dom, 0.5, opts, noise.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 7
	got, err := BuildAdaptiveGrid(pts, dom, 0.5, opts, noise.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEstimate() != ref.TotalEstimate() {
		t.Fatalf("total estimate %v != %v", got.TotalEstimate(), ref.TotalEstimate())
	}
	r := geom.NewRect(-10, 0, 45, 60)
	if a, b := got.Query(r), ref.Query(r); a != b {
		t.Fatalf("query: %v != %v", a, b)
	}
}

func TestParallelAGRequiresForkableSource(t *testing.T) {
	dom, _ := geom.NewDomain(0, 0, 10, 10)
	pts := parallelTestPoints(100, 3, dom)
	src := noise.FromRand(rand.New(rand.NewSource(1)))

	// Explicit parallelism without a forkable source must fail loudly.
	_, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 2, Workers: 4}, src)
	if err == nil || !strings.Contains(err.Error(), "Forkable") {
		t.Fatalf("want Forkable error, got %v", err)
	}
	// The zero value falls back to the sequential single-stream path.
	if _, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 2}, src); err != nil {
		t.Fatalf("sequential fallback failed: %v", err)
	}
}

// Zero-noise source: the parallel path must preserve exact bookkeeping
// (forks of Zero are Zero), so counts equal the exact histogram.
func TestParallelAGZeroNoiseExact(t *testing.T) {
	dom, _ := geom.NewDomain(0, 0, 8, 8)
	pts := parallelTestPoints(4000, 4, dom)
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 4, Workers: 4}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	got := ag.Query(geom.NewRect(0, 0, 8, 8))
	if want := float64(len(pts)); got != want {
		t.Fatalf("zero-noise total = %v, want %v", got, want)
	}
}

// Reusing one Source instance across builds must yield FRESH noise each
// time: Fork(i) is state-independent by contract, so without a per-build
// nonce two releases would carry bit-identical level-2 noise, letting an
// observer subtract them to cancel the noise exactly.
func TestSourceReuseGivesFreshNoise(t *testing.T) {
	dom, _ := geom.NewDomain(0, 0, 10, 10)
	pts := parallelTestPoints(2000, 7, dom)
	src := noise.NewSource(5)
	build := func() *AdaptiveGrid {
		ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 3, Workers: 2}, src)
		if err != nil {
			t.Fatal(err)
		}
		return ag
	}
	a, b := build(), build()
	same := true
	for iy := 0; iy < 3 && same; iy++ {
		for ix := 0; ix < 3; ix++ {
			if a.CellTotal(ix, iy) != b.CellTotal(ix, iy) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two builds reusing one source released identical noise")
	}
}

func TestQueryBatchMatchesQuery(t *testing.T) {
	dom, _ := geom.NewDomain(0, 0, 100, 100)
	pts := parallelTestPoints(10000, 5, dom)

	ug, err := BuildUniformGrid(pts, dom, 1, UGOptions{GridSize: 30}, noise.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 6}, noise.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}

	qrng := rand.New(rand.NewSource(6))
	rects := make([]geom.Rect, 500)
	for i := range rects {
		rects[i] = geom.NewRect(qrng.Float64()*100, qrng.Float64()*100, qrng.Float64()*100, qrng.Float64()*100)
	}

	for _, tc := range []struct {
		name  string
		batch func([]geom.Rect) []float64
		one   func(geom.Rect) float64
	}{
		{"UG", batchOf(ug.Query), ug.Query},
		{"AG", batchOf(ag.Query), ag.Query},
	} {
		got := tc.batch(rects)
		if len(got) != len(rects) {
			t.Fatalf("%s: %d results for %d rects", tc.name, len(got), len(rects))
		}
		for i, r := range rects {
			if want := tc.one(r); got[i] != want {
				t.Fatalf("%s rect %d: batch %v != single %v", tc.name, i, got[i], want)
			}
		}
	}
	if got := batchOf(ug.Query)(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// batchOf is the batch path every synopsis shares: pool.Map over Query.
func batchOf(q func(geom.Rect) float64) func([]geom.Rect) []float64 {
	return func(rs []geom.Rect) []float64 { return pool.Map(rs, 0, q) }
}
