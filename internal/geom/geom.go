// Package geom provides the planar geometry substrate shared by every
// synopsis method in this repository: points, axis-aligned rectangles,
// and data domains with cell-coordinate conversions.
//
// All coordinates are float64 in arbitrary dataset units (the paper's
// datasets use degrees of longitude/latitude). Rectangles are half-open
// on neither side: a Rect covers [MinX, MaxX] x [MinY, MaxY]; grids
// resolve boundary ties by assigning a point on an interior cell edge to
// the higher-index cell, and clamping the final row/column so MaxX/MaxY
// stay inside the grid.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Point is a data tuple viewed as a point in the plane (section II-B of
// the paper: "we view each tuple as a point in two-dimensional space").
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY].
// The zero value is the degenerate rectangle at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle with the given corners, normalizing the
// order so that Min <= Max on both axes.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Degenerate rectangles have area 0.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// IsValid reports whether r has non-negative extent on both axes and all
// coordinates are finite.
func (r Rect) IsValid() bool {
	for _, v := range [...]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely inside r (boundary inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersect returns the intersection of r and s and whether it is
// non-degenerate (positive overlap on both axes is not required: touching
// rectangles intersect in a zero-area rectangle, and ok is still true as
// long as the intersection is non-empty).
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.MinX > out.MaxX || out.MinY > out.MaxY {
		return Rect{}, false
	}
	return out, true
}

// OverlapFraction returns the fraction of r's area covered by s, in [0, 1].
// This is the uniformity estimate used when a query partially intersects a
// cell (section II-B). Degenerate r yields 0.
func (r Rect) OverlapFraction(s Rect) float64 {
	inter, ok := r.Intersect(s)
	if !ok {
		return 0
	}
	a := r.Area()
	if a <= 0 {
		return 0
	}
	f := inter.Area() / a
	if f > 1 {
		f = 1
	}
	return f
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Domain is the bounding rectangle of a dataset. The paper assumes the
// domain is public knowledge (its boundaries are part of the synopsis).
type Domain struct {
	Rect
}

// NewDomain returns a Domain for the given bounds.
func NewDomain(minX, minY, maxX, maxY float64) (Domain, error) {
	r := Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
	if !r.IsValid() || r.Width() <= 0 || r.Height() <= 0 {
		return Domain{}, fmt.Errorf("geom: invalid domain %v: need finite bounds with positive extent", r)
	}
	return Domain{Rect: r}, nil
}

// MustDomain is NewDomain but panics on error; for tests and constants.
func MustDomain(minX, minY, maxX, maxY float64) Domain {
	d, err := NewDomain(minX, minY, maxX, maxY)
	if err != nil {
		panic(err)
	}
	return d
}

// ErrOutOfDomain is returned when an operation receives a point or
// rectangle outside the domain it applies to.
var ErrOutOfDomain = errors.New("geom: outside domain")

// CellSize returns the width and height of one cell of an mx x my grid
// over d.
func (d Domain) CellSize(mx, my int) (w, h float64) {
	return d.Width() / float64(mx), d.Height() / float64(my)
}

// CellIndex maps p to the (ix, iy) cell of an mx x my equi-width grid over
// d. Points on interior edges go to the higher cell; MaxX/MaxY are clamped
// into the last row/column so every in-domain point has a cell.
func (d Domain) CellIndex(p Point, mx, my int) (ix, iy int) {
	w, h := d.CellSize(mx, my)
	return d.CellIndexAt(p, w, h, mx, my)
}

// CellIndexAt is CellIndex with the cell-size divisors precomputed by
// the caller — hot ingestion loops hoist CellSize out of their
// per-point loop (CellSize returns the identical w and h every call,
// so hoisting cannot change a point's binning). This function is the
// single source of truth for the binning arithmetic: every histogram
// kernel and the AG leaf pass must go through it so their cell
// assignments can never diverge.
func (d Domain) CellIndexAt(p Point, w, h float64, mx, my int) (ix, iy int) {
	ix = int((p.X - d.MinX) / w)
	iy = int((p.Y - d.MinY) / h)
	if ix >= mx {
		ix = mx - 1
	}
	if iy >= my {
		iy = my - 1
	}
	if ix < 0 {
		ix = 0
	}
	if iy < 0 {
		iy = 0
	}
	return ix, iy
}

// CellRect returns the rectangle of cell (ix, iy) of an mx x my grid over d.
func (d Domain) CellRect(ix, iy, mx, my int) Rect {
	w, h := d.CellSize(mx, my)
	return Rect{
		MinX: d.MinX + float64(ix)*w,
		MinY: d.MinY + float64(iy)*h,
		MaxX: d.MinX + float64(ix+1)*w,
		MaxY: d.MinY + float64(iy+1)*h,
	}
}

// Clip returns r clipped to the domain and whether any part of r lies
// inside the domain.
func (d Domain) Clip(r Rect) (Rect, bool) {
	return d.Rect.Intersect(r)
}
