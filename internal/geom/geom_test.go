package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(3, 4, 1, 2)
	want := Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}
	if r != want {
		t.Fatalf("NewRect(3,4,1,2) = %v, want %v", r, want)
	}
}

func TestRectDimensions(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	if got := r.Width(); got != 4 {
		t.Errorf("Width = %g, want 4", got)
	}
	if got := r.Height(); got != 2 {
		t.Errorf("Height = %g, want 2", got)
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %g, want 8", got)
	}
}

func TestRectIsValid(t *testing.T) {
	cases := []struct {
		name string
		r    Rect
		want bool
	}{
		{"normal", Rect{0, 0, 1, 1}, true},
		{"degenerate point", Rect{1, 1, 1, 1}, true},
		{"inverted x", Rect{2, 0, 1, 1}, false},
		{"inverted y", Rect{0, 2, 1, 1}, false},
		{"nan", Rect{math.NaN(), 0, 1, 1}, false},
		{"inf", Rect{0, 0, math.Inf(1), 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.IsValid(); got != tc.want {
				t.Errorf("IsValid(%v) = %t, want %t", tc.r, got, tc.want)
			}
		})
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},   // corner inclusive
		{Point{10, 10}, true}, // corner inclusive
		{Point{10.0001, 5}, false},
		{Point{-0.0001, 5}, false},
	}
	for _, tc := range cases {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %t, want %t", tc.p, got, tc.want)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 10, 10)

	b := NewRect(5, 5, 15, 15)
	got, ok := a.Intersect(b)
	if !ok || got != NewRect(5, 5, 10, 10) {
		t.Errorf("Intersect overlap = %v,%t, want [5,10]x[5,10],true", got, ok)
	}

	c := NewRect(20, 20, 30, 30)
	if _, ok := a.Intersect(c); ok {
		t.Errorf("Intersect disjoint reported ok")
	}

	// Touching rectangles intersect in a degenerate (zero-area) rect.
	d := NewRect(10, 0, 20, 10)
	inter, ok := a.Intersect(d)
	if !ok {
		t.Fatalf("touching rectangles should intersect")
	}
	if inter.Area() != 0 {
		t.Errorf("touching intersection area = %g, want 0", inter.Area())
	}
}

func TestOverlapFraction(t *testing.T) {
	cell := NewRect(0, 0, 2, 2)
	cases := []struct {
		name  string
		query Rect
		want  float64
	}{
		{"full", NewRect(-1, -1, 3, 3), 1},
		{"half", NewRect(0, 0, 1, 2), 0.5},
		{"quarter", NewRect(1, 1, 2, 2), 0.25},
		{"none", NewRect(5, 5, 6, 6), 0},
		{"touching edge", NewRect(2, 0, 4, 2), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := cell.OverlapFraction(tc.query); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("OverlapFraction = %g, want %g", got, tc.want)
			}
		})
	}
}

func TestOverlapFractionDegenerateCell(t *testing.T) {
	degen := Rect{1, 1, 1, 1}
	if got := degen.OverlapFraction(NewRect(0, 0, 2, 2)); got != 0 {
		t.Errorf("degenerate cell OverlapFraction = %g, want 0", got)
	}
}

func TestNewDomainValidation(t *testing.T) {
	if _, err := NewDomain(0, 0, 10, 10); err != nil {
		t.Errorf("valid domain rejected: %v", err)
	}
	bad := [][4]float64{
		{0, 0, 0, 10},                     // zero width
		{0, 0, 10, 0},                     // zero height
		{5, 0, 1, 10},                     // inverted
		{math.NaN(), 0, 1, 1},             // nan
		{0, 0, math.Inf(1), 1},            // inf
		{0, math.Inf(-1), 1, 1},           // -inf
		{-1, -1, -1 + 0, 5},               // zero width negative coords
		{3, 3, 3, 3},                      // degenerate point
		{0, 0, -10, 10},                   // inverted x
		{10, 10, 10 - 1e-30, 20},          // effectively inverted
		{0, 0, 1e-320, 1},                 // subnormal width is > 0 — actually valid; replaced below
		{math.Inf(-1), 0, math.Inf(1), 1}, // inf both
	}
	for i, b := range bad {
		if i == 10 {
			continue // subnormal-width case is legitimately valid
		}
		if _, err := NewDomain(b[0], b[1], b[2], b[3]); err == nil {
			t.Errorf("NewDomain(%v) accepted, want error", b)
		}
	}
}

func TestCellIndexAndRectRoundTrip(t *testing.T) {
	d := MustDomain(0, 0, 10, 20)
	const mx, my = 5, 4
	// Every cell's center must map back to that cell.
	for ix := 0; ix < mx; ix++ {
		for iy := 0; iy < my; iy++ {
			r := d.CellRect(ix, iy, mx, my)
			center := Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
			gx, gy := d.CellIndex(center, mx, my)
			if gx != ix || gy != iy {
				t.Errorf("center of cell (%d,%d) mapped to (%d,%d)", ix, iy, gx, gy)
			}
		}
	}
}

func TestCellIndexBoundaries(t *testing.T) {
	d := MustDomain(0, 0, 10, 10)
	// Domain max corner is clamped into the last cell.
	ix, iy := d.CellIndex(Point{10, 10}, 4, 4)
	if ix != 3 || iy != 3 {
		t.Errorf("max corner -> (%d,%d), want (3,3)", ix, iy)
	}
	// Domain min corner is the first cell.
	ix, iy = d.CellIndex(Point{0, 0}, 4, 4)
	if ix != 0 || iy != 0 {
		t.Errorf("min corner -> (%d,%d), want (0,0)", ix, iy)
	}
	// Interior edge goes to the higher cell.
	ix, _ = d.CellIndex(Point{2.5, 5}, 4, 4)
	if ix != 1 {
		t.Errorf("interior edge x=2.5 -> col %d, want 1", ix)
	}
}

func TestCellRectsTileDomain(t *testing.T) {
	d := MustDomain(-3, 2, 7, 12)
	const m = 7
	var total float64
	for ix := 0; ix < m; ix++ {
		for iy := 0; iy < m; iy++ {
			total += d.CellRect(ix, iy, m, m).Area()
		}
	}
	if math.Abs(total-d.Area()) > 1e-9 {
		t.Errorf("cells tile to area %g, domain area %g", total, d.Area())
	}
}

func TestClip(t *testing.T) {
	d := MustDomain(0, 0, 10, 10)
	r, ok := d.Clip(NewRect(-5, 5, 5, 15))
	if !ok || r != NewRect(0, 5, 5, 10) {
		t.Errorf("Clip = %v,%t, want [0,5]x[5,10],true", r, ok)
	}
	if _, ok := d.Clip(NewRect(20, 20, 30, 30)); ok {
		t.Errorf("Clip fully-outside rect reported ok")
	}
}

// Property: intersection is commutative and contained in both operands.
func TestIntersectProperties(t *testing.T) {
	f := func(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1000)
		}
		a := NewRect(clamp(ax0), clamp(ay0), clamp(ax1), clamp(ay1))
		b := NewRect(clamp(bx0), clamp(by0), clamp(bx1), clamp(by1))
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 || i1 != i2 {
			return false
		}
		if ok1 {
			if !a.ContainsRect(i1) || !b.ContainsRect(i1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every generated point maps to a cell whose rect contains it.
func TestCellIndexConsistency(t *testing.T) {
	d := MustDomain(-10, -5, 30, 45)
	f := func(px, py float64, m uint8) bool {
		mx := int(m%32) + 1
		my := int(m%17) + 1
		x := d.MinX + math.Mod(math.Abs(px), d.Width())
		y := d.MinY + math.Mod(math.Abs(py), d.Height())
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		p := Point{x, y}
		ix, iy := d.CellIndex(p, mx, my)
		if ix < 0 || ix >= mx || iy < 0 || iy >= my {
			return false
		}
		r := d.CellRect(ix, iy, mx, my)
		// Allow boundary tolerance: point may sit exactly on the shared edge.
		const tol = 1e-9
		return p.X >= r.MinX-tol && p.X <= r.MaxX+tol && p.Y >= r.MinY-tol && p.Y <= r.MaxY+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
