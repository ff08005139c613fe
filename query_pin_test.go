package dpgrid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

// pinRects returns n seeded query rects over dom: random unaligned
// rects, rects reaching past the domain, rects whose edges lie on the
// edges of equi-width grids of side in sides (computed as CellRect
// computes them), degenerate rects (a segment or a point), rects
// outside the domain, and a few fixed extremes.
func pinRects(seed int64, n int, dom Domain, sides []int) []Rect {
	rng := rand.New(rand.NewSource(seed))
	w, h := dom.Width(), dom.Height()
	// free draws a coordinate up to a fifth of the extent past either
	// side of the domain.
	free := func(lo, ext float64) float64 { return lo + (rng.Float64()*1.4-0.2)*ext }
	// edge draws a coordinate on a grid edge, the way CellRect puts it.
	edge := func(lo, ext float64) float64 {
		m := sides[rng.Intn(len(sides))]
		return lo + float64(rng.Intn(m+1))*(ext/float64(m))
	}
	rs := []Rect{
		dom.Rect,
		{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)},
		{MinX: dom.MinX, MinY: dom.MinY, MaxX: dom.MinX, MaxY: dom.MinY},
		{MinX: dom.MaxX, MinY: dom.MaxY, MaxX: dom.MaxX, MaxY: dom.MaxY},
		{MinX: math.Copysign(0, -1), MinY: math.Copysign(0, -1), MaxX: dom.MaxX, MaxY: dom.MaxY},
		{MinX: math.NaN(), MinY: dom.MinY, MaxX: dom.MaxX, MaxY: dom.MaxY},
		{MinX: dom.MinX, MinY: dom.MinY, MaxX: math.NaN(), MaxY: dom.MaxY},
	}
	for len(rs) < n {
		var x0, y0, x1, y1 float64
		switch rng.Intn(6) {
		case 0, 1: // unaligned, often partly outside
			x0, y0, x1, y1 = free(dom.MinX, w), free(dom.MinY, h), free(dom.MinX, w), free(dom.MinY, h)
		case 2: // every edge on a grid edge
			x0, y0, x1, y1 = edge(dom.MinX, w), edge(dom.MinY, h), edge(dom.MinX, w), edge(dom.MinY, h)
		case 3: // some edges on grid edges, the others free
			x0, y0, x1, y1 = edge(dom.MinX, w), free(dom.MinY, h), free(dom.MinX, w), edge(dom.MinY, h)
			if rng.Intn(2) == 0 {
				x0, y0, x1, y1 = free(dom.MinX, w), edge(dom.MinY, h), edge(dom.MinX, w), free(dom.MinY, h)
			}
		case 4: // degenerate: a segment or a point
			x0, y0 = free(dom.MinX, w), free(dom.MinY, h)
			x1, y1 = x0, y0
			switch rng.Intn(3) {
			case 0:
				x1 = free(dom.MinX, w)
			case 1:
				y1 = edge(dom.MinY, h)
			}
		case 5: // small: inside one or two cells of a fine grid
			x0, y0 = free(dom.MinX, w), free(dom.MinY, h)
			x1, y1 = x0+rng.Float64()*w/50, y0+rng.Float64()*h/50
		}
		rs = append(rs, NewRect(x0, y0, x1, y1))
	}
	return rs
}

// answerHash returns the SHA-256 of the little-endian bits of every
// answer of s over rs, with every NaN written as one canonical NaN.
func answerHash(s Synopsis, rs []Rect) string {
	buf := make([]byte, 0, 8*len(rs))
	for _, r := range rs {
		v := s.Query(r)
		if math.IsNaN(v) {
			v = math.NaN()
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestQueryAnswersPinned pins the bits of Query over 10,000 seeded
// rects for every committed golden release and for one built AG with
// m1 = 64, whose unaligned rects cross many boundary cells. The
// goldens pin the released bytes; this pins the answers read off them,
// so a query-path change that moves one bit fails here.
func TestQueryAnswersPinned(t *testing.T) {
	const n = 10_000
	goldens := map[string]string{
		"ug":        "fbb50261bb249bae1ccceaa8e9ef26579c42de218f1a8a420b44a11bab46c0ad",
		"ag":        "64ce2ea04af1880cdb743de8586aabe3c4d605269da82bf4a8a4d81b1ee6c3bd",
		"sharded":   "1a7f13156457a46a5272a4f57adb18aa9bfb788aa6766a0264a260c7181532bb",
		"hierarchy": "2ba4e0c2506a32ef5ee7495a4e6457a18217c54cc78a633fc79c0b9904a5e087",
		"kdtree":    "5aa2f8efc70bac554208cc9656e8598980c108ec58241f6b3b8526dedb14bceb",
		"privlet":   "db92d2285f1f41dd07afda2b7f87bd6b8a16947b43407c6a12c377a8bdc9e7c0",
	}
	if len(goldens) != len(goldenKinds) {
		t.Fatalf("%d golden kinds pinned, want the %d in goldenKinds", len(goldens), len(goldenKinds))
	}
	// validSynopses builds every golden over [0,20]^2.
	goldenDom, err := NewDomain(0, 0, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenKinds {
		s, err := ReadSynopsisFile(filepath.Join("testdata", "golden."+name+".dpgrid"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The goldens are 2-, 3- and 4-cell grids over [0,20]^2 with
		// second levels up to a few cells a side.
		rs := pinRects(1, n, goldenDom, []int{1, 2, 3, 4, 6, 8, 12})
		if got := answerHash(s, rs); got != goldens[name] {
			t.Errorf("%s: answer hash %s, want %s", name, got, goldens[name])
		}
	}

	dom, err := NewDomain(-7.5, 3.25, 112.5, 83.25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pts := examplePoints(4, 100_000, dom)
	for i := 0; i < 150_000; i++ {
		x := math.Max(dom.MinX, math.Min(dom.MaxX, dom.MinX+0.3*dom.Width()+rng.NormFloat64()*8))
		y := math.Max(dom.MinY, math.Min(dom.MaxY, dom.MinY+0.6*dom.Height()+rng.NormFloat64()*5))
		pts = append(pts, Point{X: x, Y: y})
	}
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 64}, NewNoiseSource(9))
	if err != nil {
		t.Fatal(err)
	}
	if ag.MaxM2() < 4 {
		t.Fatalf("built AG has max m2 %d; the pin wants real second levels", ag.MaxM2())
	}
	rs := pinRects(2, n, dom, []int{1, 3, 64, 128, 192, 320})
	if got, want := answerHash(ag, rs), "bcd82747eca5a58f09f41d4b22e5b3a1398672364638da45d192ae7eca9b74dc"; got != want {
		t.Errorf("built AG m1=64: answer hash %s, want %s", got, want)
	}
}
