package pointindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dpgrid/dpgrid/internal/geom"
)

func randomPoints(seed int64, n int, dom geom.Domain) []geom.Point {
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

func TestNewValidation(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	if _, err := NewWithBuckets(dom, nil, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	// 1<<32 squared wraps int64 to 0.
	for _, b := range []int{1 << 20, 1 << 32} {
		if _, err := NewWithBuckets(dom, nil, b); err == nil {
			t.Errorf("%d buckets per axis accepted", b)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	idx, err := New(dom, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 0 {
		t.Errorf("Len = %d, want 0", idx.Len())
	}
	if got := idx.Count(geom.NewRect(0, 0, 1, 1)); got != 0 {
		t.Errorf("Count on empty index = %d, want 0", got)
	}
}

func TestDroppedOutOfDomainPoints(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 2, Y: 2}, {X: -1, Y: 0.5}}
	idx, err := New(dom, pts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1 {
		t.Errorf("Len = %d, want 1", idx.Len())
	}
	if idx.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", idx.Dropped())
	}
}

func TestCountKnownConfiguration(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := []geom.Point{
		{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3},
		{X: 8, Y: 8}, {X: 9, Y: 9},
		{X: 5, Y: 5},
	}
	idx, err := NewWithBuckets(dom, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		r    geom.Rect
		want int64
	}{
		{geom.NewRect(0, 0, 10, 10), 6},
		{geom.NewRect(0, 0, 4, 4), 3},
		{geom.NewRect(7, 7, 10, 10), 2},
		{geom.NewRect(4.9, 4.9, 5.1, 5.1), 1},
		{geom.NewRect(0, 0, 1, 1), 1},     // boundary inclusive
		{geom.NewRect(1, 1, 1, 1), 1},     // degenerate rect still catches the point on it
		{geom.NewRect(6, 0, 7, 1), 0},     // empty region
		{geom.NewRect(-5, -5, -1, -1), 0}, // outside domain
	}
	for _, tc := range cases {
		if got := idx.Count(tc.r); got != tc.want {
			t.Errorf("Count(%v) = %d, want %d", tc.r, got, tc.want)
		}
	}
}

func TestCountMatchesNaiveRandom(t *testing.T) {
	dom := geom.MustDomain(-20, 5, 40, 35)
	pts := randomPoints(3, 5000, dom)
	for _, buckets := range []int{1, 3, 16, 70} {
		idx, err := NewWithBuckets(dom, pts, buckets)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 300; trial++ {
			r := geom.NewRect(
				dom.MinX+rng.Float64()*dom.Width(),
				dom.MinY+rng.Float64()*dom.Height(),
				dom.MinX+rng.Float64()*dom.Width(),
				dom.MinY+rng.Float64()*dom.Height(),
			)
			got, want := idx.Count(r), idx.CountNaive(r)
			if got != want {
				t.Fatalf("buckets=%d trial=%d: Count(%v) = %d, naive = %d", buckets, trial, r, got, want)
			}
		}
	}
}

func TestCountQuickProperty(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	pts := randomPoints(9, 2000, dom)
	idx, err := NewWithBuckets(dom, pts, 11)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d uint16) bool {
		s := func(v uint16) float64 { return float64(v) / 65535 }
		r := geom.NewRect(s(a), s(b), s(c), s(d))
		return idx.Count(r) == idx.CountNaive(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountBucketEdgeQueries(t *testing.T) {
	// Query edges exactly on bucket boundaries exercise the partial/full
	// bucket classification.
	dom := geom.MustDomain(0, 0, 8, 8)
	pts := randomPoints(5, 3000, dom)
	idx, err := NewWithBuckets(dom, pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	for x0 := 0.0; x0 <= 6; x0 += 2 {
		for y0 := 0.0; y0 <= 6; y0 += 2 {
			r := geom.NewRect(x0, y0, x0+2, y0+2)
			if got, want := idx.Count(r), idx.CountNaive(r); got != want {
				t.Errorf("Count(%v) = %d, naive %d", r, got, want)
			}
		}
	}
}

func TestPointsOnDomainEdge(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	pts := []geom.Point{{X: 1, Y: 1}, {X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	idx, err := NewWithBuckets(dom, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Count(geom.NewRect(0, 0, 1, 1)); got != 4 {
		t.Errorf("full-domain count = %d, want 4 (corner points must index)", got)
	}
}

func BenchmarkCount1M(b *testing.B) {
	dom := geom.MustDomain(0, 0, 360, 150)
	pts := randomPoints(8, 1_000_000, dom)
	idx, err := New(dom, pts)
	if err != nil {
		b.Fatal(err)
	}
	r := geom.NewRect(10, 10, 200, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.Count(r)
	}
}

func TestIndexDomain(t *testing.T) {
	dom := geom.MustDomain(0, 0, 5, 5)
	idx, err := New(dom, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Domain() != dom {
		t.Errorf("Domain = %v, want %v", idx.Domain(), dom)
	}
}
