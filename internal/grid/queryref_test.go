package grid

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// queryRef is Prefix.Query as it was before the per-axis kernel: clip
// through Domain.Clip, cell size through CellSize, four divides, the
// [0, m] clamps and AxisSpans on both axes. Query must answer every
// rect, NaN and infinite edges included, with exactly its bits.
func queryRef(p *Prefix, r geom.Rect) float64 {
	clipped, ok := p.dom.Clip(r)
	if !ok {
		return 0
	}
	w, h := p.dom.CellSize(p.mx, p.my)
	loX := clampFloat((clipped.MinX-p.dom.MinX)/w, 0, float64(p.mx))
	hiX := clampFloat((clipped.MaxX-p.dom.MinX)/w, 0, float64(p.mx))
	loY := clampFloat((clipped.MinY-p.dom.MinY)/h, 0, float64(p.my))
	hiY := clampFloat((clipped.MaxY-p.dom.MinY)/h, 0, float64(p.my))

	var xbuf, ybuf [3]Span
	xs := AxisSpans(loX, hiX, p.mx, xbuf[:0])
	ys := AxisSpans(loY, hiY, p.my, ybuf[:0])

	var total float64
	for _, sy := range ys {
		for _, sx := range xs {
			total += sx.W * sy.W * p.BlockSum(sx.I0, sy.I0, sx.I1, sy.I1)
		}
	}
	return total
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sameAnswer reports whether two answers have equal bits, any NaN
// equal to any other.
func sameAnswer(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkBitExact compares Query with queryRef on r and on variants of r
// with edges moved onto the table's domain and cell edges, which the
// kernel's fast paths key on and random floats almost never hit.
func checkBitExact(t *testing.T, p *Prefix, r geom.Rect) {
	t.Helper()
	d := p.dom
	w, h := d.CellSize(p.mx, p.my)
	rs := []geom.Rect{
		r,
		{MinX: d.MinX, MinY: r.MinY, MaxX: d.MaxX, MaxY: r.MaxY},
		{MinX: r.MinX, MinY: d.MinY, MaxX: r.MaxX, MaxY: d.MaxY},
		{MinX: d.MinX, MinY: d.MinY, MaxX: r.MaxX, MaxY: r.MaxY},
		{MinX: r.MinX, MinY: r.MinY, MaxX: d.MaxX, MaxY: d.MaxY},
		// Edges snapped to the nearest cell edge, as CellRect puts it.
		{
			MinX: d.MinX + math.Round((r.MinX-d.MinX)/w)*w, MinY: d.MinY + math.Round((r.MinY-d.MinY)/h)*h,
			MaxX: d.MinX + math.Round((r.MaxX-d.MinX)/w)*w, MaxY: d.MinY + math.Round((r.MaxY-d.MinY)/h)*h,
		},
	}
	for _, q := range rs {
		if got, want := p.Query(q), queryRef(p, q); !sameAnswer(got, want) {
			t.Fatalf("%dx%d table over %v: Query(%#v) = %g (%#x), reference %g (%#x)",
				p.mx, p.my, d, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// fuzzPrefix builds an mx x my table over the domain (x0, y0, x1, y1)
// with seeded cell values, falling back to a fixed domain when those
// bounds are not a valid one.
func fuzzPrefix(t *testing.T, x0, y0, x1, y1 float64, mx, my uint8, seed int64) *Prefix {
	dom, err := geom.NewDomain(x0, y0, x1, y1)
	if err != nil {
		dom = geom.MustDomain(-3, 2, 17, 31)
	}
	c, err := New(dom, int(mx%16)+1, int(my%16)+1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range c.Values() {
		c.Values()[i] = rng.Float64()*40 - 10
	}
	p := NewPrefix(c)
	return &p
}

// FuzzPrefixQueryBitExact: for arbitrary float inputs (NaN, ±Inf and
// ±0 included, Min above Max allowed) over arbitrary tables, Query
// answers with exactly the bits of the reference path.
func FuzzPrefixQueryBitExact(f *testing.F) {
	inf, nan, negz := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	for _, s := range [][8]float64{
		{-3, 2, 17, 31, 0, 0, 1, 1},
		{-3, 2, 17, 31, -3, 2, 17, 31},
		{-3, 2, 17, 31, 5.5, 5.5, 5.5, 5.5},
		{-3, 2, 17, 31, -100, -100, 100, 100},
		{0, 0, 1, 1, negz, negz, 0.5, 0.5},
		{negz, negz, 1, 1, 0, 0, 1, 1},
		{0, 0, 1, 1, nan, nan, nan, nan},
		{0, 0, 1, 1, nan, 0.25, 0.75, 0.75},
		{0, 0, 1, 1, 0.25, 0.25, nan, 0.75},
		{0, 0, 1, 1, -inf, -inf, inf, inf},
		{0, 0, 1, 1, inf, inf, -inf, -inf},
		{0, 0, 1, 1, 0.75, 0.25, 0.25, 0.75},
		{0.1, 0.2, 0.7, 0.9, 0.1, 0.2, 0.7, 0.9},
		{-1e300, -1e300, 1e300, 1e300, -1e-300, 0, 1e-300, 1e308},
	} {
		f.Add(s[0], s[1], s[2], s[3], uint8(11), uint8(7), int64(99), s[4], s[5], s[6], s[7])
	}
	f.Add(0.0, 0.0, 1.0, 1.0, uint8(0), uint8(0), int64(1), 0.0, 0.0, 1.0, 1.0)

	f.Fuzz(func(t *testing.T, dx0, dy0, dx1, dy1 float64, mx, my uint8, seed int64, x0, y0, x1, y1 float64) {
		p := fuzzPrefix(t, dx0, dy0, dx1, dy1, mx, my, seed)
		checkBitExact(t, p, geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
	})
}

// TestPrefixQueryBitExactRandom runs the bit-exact comparison over
// seeded tables and rects, special values mixed in, on every go test.
func TestPrefixQueryBitExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	coord := func(lo, ext float64) float64 {
		if rng.Intn(20) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return lo + (rng.Float64()*1.4-0.2)*ext
	}
	for i := 0; i < 2000; i++ {
		x0, y0 := rng.NormFloat64()*100, rng.NormFloat64()*100
		w, h := rng.ExpFloat64()*50, rng.ExpFloat64()*50
		p := fuzzPrefix(t, x0, y0, x0+w, y0+h, uint8(rng.Intn(16)), uint8(rng.Intn(16)), int64(i))
		d := p.Domain()
		for j := 0; j < 20; j++ {
			checkBitExact(t, p, geom.Rect{
				MinX: coord(d.MinX, d.Width()), MinY: coord(d.MinY, d.Height()),
				MaxX: coord(d.MinX, d.Width()), MaxY: coord(d.MinY, d.Height()),
			})
		}
	}
}

// BenchmarkPrefixQueryShapes times Query against the reference path on
// the rect shapes an AG boundary cell sees from its 8x8 leaf table: a
// rect crossing the cell on one axis and covering it on the other
// (edge), one ending inside the cell on both axes (corner), one
// strictly inside it, and one covering it.
func BenchmarkPrefixQueryShapes(b *testing.B) {
	dom := geom.MustDomain(0.1, 0.2, 0.4, 0.6)
	rng := rand.New(rand.NewSource(1))
	c, err := New(dom, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := range c.Values() {
		c.Values()[i] = rng.Float64()
	}
	p := NewPrefix(c)
	shapes := []struct {
		name string
		r    geom.Rect
	}{
		{"edge", geom.NewRect(0.23, -5, 9, 5)},
		{"corner", geom.NewRect(0.23, 0.33, 9, 9)},
		{"inside", geom.NewRect(0.13, 0.27, 0.31, 0.52)},
		{"cover", geom.NewRect(-5, -5, 5, 5)},
	}
	for _, s := range shapes {
		r := s.r
		b.Run("shape="+s.name+"/path=query", func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += p.Query(r)
			}
			benchSink = sink
		})
		b.Run("shape="+s.name+"/path=ref", func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += queryRef(&p, r)
			}
			benchSink = sink
		})
	}
}

var benchSink float64
