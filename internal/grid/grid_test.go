package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dpgrid/dpgrid/internal/geom"
)

func mustGrid(t *testing.T, dom geom.Domain, mx, my int) *Counts {
	t.Helper()
	c, err := New(dom, mx, my)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 5}, {1 << 20, 1 << 20}} {
		if _, err := New(dom, dims[0], dims[1]); err == nil {
			t.Errorf("New(%dx%d) accepted, want error", dims[0], dims[1])
		}
	}
}

// TestDimsBoundPerAxis: sizes whose product overflows int64 (2^32 x
// 2^32 wraps to 0) or exceeds the cap by one cell are refused by every
// constructor, without allocating.
func TestDimsBoundPerAxis(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	for _, dims := range [][2]int{{1 << 32, 1 << 32}, {1, MaxCells + 1}, {MaxCells + 1, 1}} {
		if _, err := New(dom, dims[0], dims[1]); err == nil {
			t.Errorf("New(%dx%d) accepted", dims[0], dims[1])
		}
		if _, err := FromValues(dom, dims[0], dims[1], nil); err == nil {
			t.Errorf("FromValues(%dx%d) accepted", dims[0], dims[1])
		}
		if Fits(dims[0], dims[1]) {
			t.Errorf("Fits(%dx%d) = true", dims[0], dims[1])
		}
	}
	if !Fits(1, MaxCells) || !Fits(1<<14, 1<<14) {
		t.Error("grids at the cap do not fit")
	}
}

func TestFromPointsCounts(t *testing.T) {
	dom := geom.MustDomain(0, 0, 4, 4)
	pts := []geom.Point{
		{X: 0.5, Y: 0.5}, {X: 0.6, Y: 0.4}, // cell (0,0)
		{X: 3.5, Y: 3.5}, // cell (3,3)
		{X: 2.5, Y: 0.5}, // cell (2,0)
		{X: 9, Y: 9},     // outside: ignored
	}
	c, err := FromPoints(dom, 4, 4, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(0, 0); got != 2 {
		t.Errorf("cell (0,0) = %g, want 2", got)
	}
	if got := c.At(3, 3); got != 1 {
		t.Errorf("cell (3,3) = %g, want 1", got)
	}
	if got := c.At(2, 0); got != 1 {
		t.Errorf("cell (2,0) = %g, want 1", got)
	}
	if got := c.Total(); got != 4 {
		t.Errorf("Total = %g, want 4 (outside point must be dropped)", got)
	}
}

func TestAtSetAddAndPanic(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	c := mustGrid(t, dom, 3, 2)
	c.Set(2, 1, 5)
	c.Add(2, 1, 2.5)
	if got := c.At(2, 1); got != 7.5 {
		t.Errorf("At(2,1) = %g, want 7.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	c.At(3, 0)
}

func TestCloneIsDeep(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	c := mustGrid(t, dom, 2, 2)
	c.Set(0, 0, 1)
	d := c.Clone()
	d.Set(0, 0, 99)
	if c.At(0, 0) != 1 {
		t.Error("Clone shares backing storage")
	}
}

func TestPrefixTotalAndBlockSum(t *testing.T) {
	dom := geom.MustDomain(0, 0, 3, 3)
	c := mustGrid(t, dom, 3, 3)
	// Distinct values so misindexing shows up.
	v := 1.0
	for iy := 0; iy < 3; iy++ {
		for ix := 0; ix < 3; ix++ {
			c.Set(ix, iy, v)
			v++
		}
	}
	p := NewPrefix(c)
	if got := p.Total(); got != 45 {
		t.Errorf("Total = %g, want 45", got)
	}
	// Middle cell only.
	if got := p.BlockSum(1, 1, 2, 2); got != 5 {
		t.Errorf("BlockSum middle = %g, want 5", got)
	}
	// Bottom row (iy = 0): 1+2+3.
	if got := p.BlockSum(0, 0, 3, 1); got != 6 {
		t.Errorf("BlockSum bottom row = %g, want 6", got)
	}
	// Clamping: oversized ranges equal the full sum.
	if got := p.BlockSum(-5, -5, 99, 99); got != 45 {
		t.Errorf("BlockSum clamped = %g, want 45", got)
	}
	// Empty range.
	if got := p.BlockSum(2, 2, 2, 3); got != 0 {
		t.Errorf("BlockSum empty = %g, want 0", got)
	}
}

func TestQueryAlignedExact(t *testing.T) {
	dom := geom.MustDomain(0, 0, 8, 8)
	rng := rand.New(rand.NewSource(1))
	c := mustGrid(t, dom, 8, 8)
	for i := range c.Values() {
		c.Values()[i] = math.Floor(rng.Float64() * 100)
	}
	p := NewPrefix(c)
	// Queries aligned to cell edges must be answered exactly.
	cases := []struct {
		r geom.Rect
	}{
		{geom.NewRect(0, 0, 8, 8)},
		{geom.NewRect(1, 2, 5, 7)},
		{geom.NewRect(0, 0, 1, 1)},
		{geom.NewRect(7, 7, 8, 8)},
		{geom.NewRect(2, 0, 6, 8)},
	}
	for _, tc := range cases {
		want := p.BlockSum(int(tc.r.MinX), int(tc.r.MinY), int(tc.r.MaxX), int(tc.r.MaxY))
		got := p.Query(tc.r)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Query(%v) = %g, want %g", tc.r, got, want)
		}
	}
}

func TestQueryFractional(t *testing.T) {
	dom := geom.MustDomain(0, 0, 2, 2)
	c := mustGrid(t, dom, 2, 2)
	c.Set(0, 0, 4)
	c.Set(1, 0, 8)
	c.Set(0, 1, 12)
	c.Set(1, 1, 16)
	p := NewPrefix(c)

	// Query covering exactly half of cell (0,0): [0,0.5]x[0,1].
	if got, want := p.Query(geom.NewRect(0, 0, 0.5, 1)), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("half-cell query = %g, want %g", got, want)
	}
	// Query covering a quarter of every cell: [0.5,1.5]x[0.5,1.5].
	if got, want := p.Query(geom.NewRect(0.5, 0.5, 1.5, 1.5)), 0.25*(4+8+12+16); math.Abs(got-want) > 1e-12 {
		t.Errorf("center query = %g, want %g", got, want)
	}
	// Degenerate query has zero area -> zero estimate.
	if got := p.Query(geom.NewRect(1, 1, 1, 1)); got != 0 {
		t.Errorf("degenerate query = %g, want 0", got)
	}
	// Query fully outside the domain.
	if got := p.Query(geom.NewRect(5, 5, 6, 6)); got != 0 {
		t.Errorf("outside query = %g, want 0", got)
	}
	// Query exceeding the domain clips to the full total.
	if got, want := p.Query(geom.NewRect(-10, -10, 10, 10)), 40.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("overhanging query = %g, want %g", got, want)
	}
}

func TestQueryMatchesNaiveRandom(t *testing.T) {
	dom := geom.MustDomain(-5, 3, 20, 17)
	rng := rand.New(rand.NewSource(7))
	c := mustGrid(t, dom, 13, 9) // deliberately non-square, non-power-of-two
	for i := range c.Values() {
		c.Values()[i] = rng.Float64()*50 - 10 // include negatives (noisy counts)
	}
	p := NewPrefix(c)
	for trial := 0; trial < 2000; trial++ {
		x0 := dom.MinX + rng.Float64()*dom.Width()
		x1 := dom.MinX + rng.Float64()*dom.Width()
		y0 := dom.MinY + rng.Float64()*dom.Height()
		y1 := dom.MinY + rng.Float64()*dom.Height()
		r := geom.NewRect(x0, y0, x1, y1)
		got := p.Query(r)
		want := c.QueryNaive(r)
		if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("trial %d: Query(%v) = %g, naive = %g", trial, r, got, want)
		}
	}
}

func TestQueryLinearity(t *testing.T) {
	// Query(r) over c1+c2 equals Query over c1 plus Query over c2.
	dom := geom.MustDomain(0, 0, 10, 10)
	rng := rand.New(rand.NewSource(11))
	c1 := mustGrid(t, dom, 6, 6)
	c2 := mustGrid(t, dom, 6, 6)
	sum := mustGrid(t, dom, 6, 6)
	for i := range c1.Values() {
		c1.Values()[i] = rng.Float64() * 10
		c2.Values()[i] = rng.Float64() * 10
		sum.Values()[i] = c1.Values()[i] + c2.Values()[i]
	}
	p1, p2, ps := NewPrefix(c1), NewPrefix(c2), NewPrefix(sum)
	r := geom.NewRect(1.3, 2.7, 8.9, 9.1)
	if got, want := ps.Query(r), p1.Query(r)+p2.Query(r); math.Abs(got-want) > 1e-9 {
		t.Errorf("linearity: %g vs %g", got, want)
	}
}

func TestQueryPropertyQuick(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	rng := rand.New(rand.NewSource(13))
	c := mustGrid(t, dom, 7, 5)
	for i := range c.Values() {
		c.Values()[i] = rng.Float64() * 100
	}
	p := NewPrefix(c)
	f := func(a, b, cc, d float64) bool {
		norm := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			return math.Abs(math.Mod(v, 1))
		}
		r := geom.NewRect(norm(a), norm(b), norm(cc), norm(d))
		got := p.Query(r)
		want := c.QueryNaive(r)
		return math.Abs(got-want) <= 1e-7*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQueryMonotoneInArea(t *testing.T) {
	// For non-negative grids, growing the query cannot shrink the answer.
	dom := geom.MustDomain(0, 0, 10, 10)
	rng := rand.New(rand.NewSource(17))
	c := mustGrid(t, dom, 10, 10)
	for i := range c.Values() {
		c.Values()[i] = rng.Float64() * 5
	}
	p := NewPrefix(c)
	inner := geom.NewRect(2.5, 2.5, 6.5, 6.5)
	outer := geom.NewRect(2.0, 2.0, 7.0, 7.0)
	if p.Query(inner) > p.Query(outer)+1e-9 {
		t.Errorf("Query(inner)=%g > Query(outer)=%g", p.Query(inner), p.Query(outer))
	}
}

func TestFromPointsSingleCellGrid(t *testing.T) {
	// The 1x1 grid degenerates to a total count; any interior query returns
	// area-fraction * total (uniformity over the whole domain).
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := make([]geom.Point, 100)
	rng := rand.New(rand.NewSource(19))
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	c, err := FromPoints(dom, 1, 1, pts)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrefix(c)
	got := p.Query(geom.NewRect(0, 0, 5, 10))
	if math.Abs(got-50) > 1e-9 {
		t.Errorf("half-domain query on 1x1 grid = %g, want 50", got)
	}
}

func BenchmarkPrefixQuery(b *testing.B) {
	dom := geom.MustDomain(0, 0, 100, 100)
	rng := rand.New(rand.NewSource(1))
	c, _ := New(dom, 512, 512)
	for i := range c.Values() {
		c.Values()[i] = rng.Float64()
	}
	p := NewPrefix(c)
	r := geom.NewRect(10.3, 20.7, 80.1, 90.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Query(r)
	}
}

func BenchmarkFromPoints1M(b *testing.B) {
	dom := geom.MustDomain(0, 0, 100, 100)
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 1_000_000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = FromPoints(dom, 316, 316, pts)
	}
}

// TestPrefixFromSumsRoundTrip: a Prefix rebuilt from its own Sums table
// answers every block sum identically (the invariant the binary synopsis
// codec relies on for bit-identical round trips).
func TestPrefixFromSumsRoundTrip(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	c := mustGrid(t, dom, 5, 3)
	rng := rand.New(rand.NewSource(9))
	for i := range c.Values() {
		c.Values()[i] = rng.NormFloat64() * 10
	}
	p := NewPrefix(c)
	sums := make([]float64, len(p.Sums()))
	copy(sums, p.Sums())
	q, err := PrefixFromSums(dom, 5, 3, sums)
	if err != nil {
		t.Fatal(err)
	}
	for iy := 0; iy <= 3; iy++ {
		for ix := 0; ix <= 5; ix++ {
			if a, b := p.BlockSum(0, 0, ix, iy), q.BlockSum(0, 0, ix, iy); a != b {
				t.Fatalf("BlockSum(0,0,%d,%d): %g vs %g", ix, iy, a, b)
			}
		}
	}
	r := geom.NewRect(1.3, 0.4, 8.8, 9.1)
	if a, b := p.Query(r), q.Query(r); a != b {
		t.Fatalf("Query: %g vs %g", a, b)
	}
}

func TestPrefixFromSumsValidation(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	p := NewPrefix(mustGrid(t, dom, 2, 2))
	good := p.Sums()
	cases := []struct {
		name   string
		mx, my int
		sums   []float64
	}{
		{"zero dims", 0, 2, good},
		{"negative dims", 2, -1, good},
		{"too large", 1 << 20, 1 << 20, good},
		{"short table", 2, 2, good[:4]},
		{"nonzero first row", 2, 2, []float64{0, 1, 0, 0, 0, 2, 0, 0, 4}},
		{"nonzero first column", 2, 2, []float64{0, 0, 0, 3, 0, 2, 0, 0, 4}},
	}
	for _, tc := range cases {
		if _, err := PrefixFromSums(dom, tc.mx, tc.my, tc.sums); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := PrefixFromSums(dom, 2, 2, []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}
