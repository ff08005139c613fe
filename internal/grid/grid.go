// Package grid implements the dense two-dimensional histogram substrate
// that every grid-based synopsis in this repository is built on: cell
// counts over an equi-width grid, and range queries answered under the
// paper's uniformity assumption (section II-B) — cells fully inside a
// query contribute their whole count, cells partially covered contribute
// count * overlapFraction.
//
// Queries run in O(1) per call via a 2D prefix-sum table: a rectangle
// decomposes into at most 3x3 = 9 axis-aligned blocks (full interior,
// partial edge strips, partial corners), each summed with inclusion-
// exclusion. The table is SAT, the package's summed-area table for any
// dimension, which gridnd shares.
package grid

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// Counts is a dense mx x my grid of float64 cell counts over a domain.
// Counts may be fractional or negative once differential-privacy noise
// has been added.
type Counts struct {
	dom  geom.Domain
	mx   int
	my   int
	vals []float64 // row-major: vals[iy*mx + ix]
}

// MaxCells caps the total cell count of one grid allocation:
// 256M cells * 8B = 2GB; anything larger is refused. Deserializers use
// the same cap so a corrupt file cannot demand an absurd allocation.
const MaxCells = 1 << 28

// New returns a zeroed mx x my grid over dom.
func New(dom geom.Domain, mx, my int) (*Counts, error) {
	if err := checkDims(mx, my); err != nil {
		return nil, err
	}
	return &Counts{dom: dom, mx: mx, my: my, vals: make([]float64, mx*my)}, nil
}

// Fits reports whether an mx x my grid has positive sides and at most
// MaxCells cells. It bounds one side before taking the product, so
// adversarial sizes cannot overflow past the cap.
func Fits(mx, my int) bool { return mx > 0 && my > 0 && mx <= MaxCells/my }

func checkDims(mx, my int) error {
	if mx <= 0 || my <= 0 {
		return fmt.Errorf("grid: dimensions must be positive, got %dx%d", mx, my)
	}
	if !Fits(mx, my) {
		return fmt.Errorf("grid: %dx%d grid too large", mx, my)
	}
	return nil
}

// FromValues wraps vals, mx*my row-major cell counts, as a grid over
// dom without copying them; the grid takes ownership of vals. Decoders
// use it to adopt a counts section in place.
func FromValues(dom geom.Domain, mx, my int, vals []float64) (*Counts, error) {
	if err := checkDims(mx, my); err != nil {
		return nil, err
	}
	if len(vals) != mx*my {
		return nil, fmt.Errorf("grid: %d values for a %dx%d grid", len(vals), mx, my)
	}
	return &Counts{dom: dom, mx: mx, my: my, vals: vals}, nil
}

// FromPoints builds the exact histogram of points on an mx x my grid over
// dom in a single pass (the paper's one-scan UG construction). Points
// outside dom are ignored; callers that need strict validation should
// check bounds beforehand.
func FromPoints(dom geom.Domain, mx, my int, points []geom.Point) (*Counts, error) {
	return FromSeqParallel(dom, mx, my, geom.SlicePoints(points), 1)
}

// Domain returns the grid's domain.
func (c *Counts) Domain() geom.Domain { return c.dom }

// Dims returns the grid dimensions (columns, rows).
func (c *Counts) Dims() (mx, my int) { return c.mx, c.my }

// At returns the count of cell (ix, iy). It panics on out-of-range
// indices, mirroring slice semantics.
func (c *Counts) At(ix, iy int) float64 {
	c.check(ix, iy)
	return c.vals[iy*c.mx+ix]
}

// Set assigns the count of cell (ix, iy).
func (c *Counts) Set(ix, iy int, v float64) {
	c.check(ix, iy)
	c.vals[iy*c.mx+ix] = v
}

// Add increments the count of cell (ix, iy) by delta.
func (c *Counts) Add(ix, iy int, delta float64) {
	c.check(ix, iy)
	c.vals[iy*c.mx+ix] += delta
}

func (c *Counts) check(ix, iy int) {
	if ix < 0 || ix >= c.mx || iy < 0 || iy >= c.my {
		panic(fmt.Sprintf("grid: index (%d,%d) out of range %dx%d", ix, iy, c.mx, c.my))
	}
}

// Values exposes the backing slice (row-major) for bulk operations such as
// adding noise to every cell. Mutations are visible to the grid.
func (c *Counts) Values() []float64 { return c.vals }

// Total returns the sum of all cell counts.
func (c *Counts) Total() float64 {
	var t float64
	for _, v := range c.vals {
		t += v
	}
	return t
}

// Clone returns a deep copy of the grid.
func (c *Counts) Clone() *Counts {
	out := &Counts{dom: c.dom, mx: c.mx, my: c.my, vals: make([]float64, len(c.vals))}
	copy(out.vals, c.vals)
	return out
}

// CellRect returns the rectangle of cell (ix, iy).
func (c *Counts) CellRect(ix, iy int) geom.Rect {
	return c.dom.CellRect(ix, iy, c.mx, c.my)
}

// QueryNaive answers a range query by iterating all cells and applying the
// uniformity estimate per cell. O(mx*my); used as the reference
// implementation in property tests.
func (c *Counts) QueryNaive(r geom.Rect) float64 {
	clipped, ok := c.dom.Clip(r)
	if !ok {
		return 0
	}
	var total float64
	for iy := 0; iy < c.my; iy++ {
		for ix := 0; ix < c.mx; ix++ {
			f := c.CellRect(ix, iy).OverlapFraction(clipped)
			if f > 0 {
				total += f * c.vals[iy*c.mx+ix]
			}
		}
	}
	return total
}

// QueryIter answers a range query by iterating only the covered cells
// and applying the uniformity estimate per cell — the cell-iteration
// baseline the prefix-table fast path is measured against. Cost grows
// with the number of covered cells (superlinear in rect side length),
// where Prefix.Query stays O(1); the BenchmarkQueryRect trajectory in
// internal/core records the gap. Answers match Query up to float
// association order.
func (c *Counts) QueryIter(r geom.Rect) float64 {
	clipped, ok := c.dom.Clip(r)
	if !ok {
		return 0
	}
	w, h := c.dom.CellSize(c.mx, c.my)
	ix0 := clampInt(int(math.Floor((clipped.MinX-c.dom.MinX)/w)), 0, c.mx-1)
	ix1 := clampInt(int(math.Floor((clipped.MaxX-c.dom.MinX)/w)), 0, c.mx-1)
	iy0 := clampInt(int(math.Floor((clipped.MinY-c.dom.MinY)/h)), 0, c.my-1)
	iy1 := clampInt(int(math.Floor((clipped.MaxY-c.dom.MinY)/h)), 0, c.my-1)
	var total float64
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			f := c.CellRect(ix, iy).OverlapFraction(clipped)
			if f > 0 {
				total += f * c.vals[iy*c.mx+ix]
			}
		}
	}
	return total
}

// Prefix is an immutable prefix-sum view of a Counts grid providing O(1)
// uniformity-estimate range queries: the 2-D case of SAT. Build it once
// after the grid's counts are final (e.g. after noise and constrained
// inference).
type Prefix struct {
	dom    geom.Domain
	mx, my int
	// sums[(iy)*(mx+1)+ix] = sum of cells with x < ix, y < iy.
	sums []float64
}

// NewPrefix builds the prefix-sum table of c. O(mx*my) time and space.
func NewPrefix(c *Counts) Prefix {
	return Prefix{dom: c.dom, mx: c.mx, my: c.my, sums: NewSAT([]int{c.mx, c.my}, c.vals).sums}
}

// Sums exposes the backing prefix-sum table, row-major with
// (mx+1) x (my+1) entries: Sums()[iy*(mx+1)+ix] is the sum of all cells
// with x < ix and y < iy. It is the table itself, not a copy; treat it
// as read-only. Serializers persist it directly so a decoded Prefix is
// bit-identical to the encoded one.
func (p *Prefix) Sums() []float64 { return p.sums }

// PrefixFromSums reconstructs a Prefix directly from a serialized sums
// table, taking ownership of sums, after SATFromSums' checks: positive
// dimensions within MaxCells, length (mx+1)*(my+1), zero first row and
// column, every entry finite.
func PrefixFromSums(dom geom.Domain, mx, my int, sums []float64) (Prefix, error) {
	if _, err := SATFromSums([]int{mx, my}, sums); err != nil {
		return Prefix{}, err
	}
	return Prefix{dom: dom, mx: mx, my: my, sums: sums}, nil
}

// AdoptPrefix returns the prefix table of c. With sums nil it is
// NewPrefix(c). Otherwise sums, a decoded summed-area section, must
// pass SATFromSums and equal bit for bit the table NewPrefix(c) builds
// (SAT.CheckCells); it is then adopted in place, so an adopted and a
// rebuilt table answer and re-encode identically.
func AdoptPrefix(c *Counts, sums []float64) (Prefix, error) {
	if sums == nil {
		return NewPrefix(c), nil
	}
	t, err := SATFromSums([]int{c.mx, c.my}, sums)
	if err != nil {
		return Prefix{}, err
	}
	if err := t.CheckCells(c.vals); err != nil {
		return Prefix{}, err
	}
	return Prefix{dom: c.dom, mx: c.mx, my: c.my, sums: sums}, nil
}

// Domain returns the domain of the underlying grid.
func (p *Prefix) Domain() geom.Domain { return p.dom }

// Dims returns the underlying grid dimensions.
func (p *Prefix) Dims() (mx, my int) { return p.mx, p.my }

// Total returns the sum of all cells.
func (p *Prefix) Total() float64 { return p.sums[len(p.sums)-1] }

// BlockSum returns the exact sum of cells with ix in [ix0, ix1) and iy in
// [iy0, iy1). Indices are clamped to the grid.
func (p *Prefix) BlockSum(ix0, iy0, ix1, iy1 int) float64 {
	return blockSum2(p.sums, p.mx+1,
		clampInt(ix0, 0, p.mx), clampInt(iy0, 0, p.my), clampInt(ix1, 0, p.mx), clampInt(iy1, 0, p.my))
}

// Query answers the range-count query r under the uniformity assumption.
// The query is clipped to the domain first; a query outside the domain
// returns 0. Each axis is clipped, mapped to cell units and split into
// weighted runs on its own (axisSpans), and every pair of runs adds
// its weights times its block sum.
func (p *Prefix) Query(r geom.Rect) float64 {
	var xbuf, ybuf [3]Span
	xs, ok := axisSpans(p.dom.MinX, p.dom.MaxX, r.MinX, r.MaxX, p.mx, &xbuf)
	if !ok {
		return 0
	}
	ys, ok := axisSpans(p.dom.MinY, p.dom.MaxY, r.MinY, r.MaxY, p.my, &ybuf)
	if !ok {
		return 0
	}
	// BlockSum's index clamps stay: a NaN edge makes a run of
	// out-of-range indices, which must sum to 0 and so answer NaN.
	var total float64
	for _, sy := range ys {
		y0, y1 := clampInt(sy.I0, 0, p.my), clampInt(sy.I1, 0, p.my)
		for _, sx := range xs {
			total += sx.W * sy.W * blockSum2(p.sums, p.mx+1, clampInt(sx.I0, 0, p.mx), y0, clampInt(sx.I1, 0, p.mx), y1)
		}
	}
	return total
}

// axisSpans is one axis of Query. It clips [r0, r1] to the table's
// extent [d0, d1], maps the clipped interval onto the axis's m cells
// and splits it into AxisSpans' runs in buf; ok is false when the
// clipped interval is empty. The runs are bit for bit those of
// Domain.Clip, CellSize, a divide per edge, the [0, m] clamps and
// AxisSpans, with less work:
//   - a low edge on d0 is exactly +0 cells in, with no divide;
//   - neither bound can fall below 0, since the clip keeps both edges
//     at or above d0, and a low bound past m leaves the run empty as
//     the clamped one does, so only the high bound is clamped;
//   - the interval from 0 to m is the one full-weight run, with no
//     AxisSpans call.
func axisSpans(d0, d1, r0, r1 float64, m int, buf *[3]Span) (spans []Span, ok bool) {
	c0, c1 := fmax(d0, r0), fmin(d1, r1)
	if c0 > c1 {
		return nil, false
	}
	w, fm := (d1-d0)/float64(m), float64(m)
	var lo float64
	if c0 != d0 {
		lo = (c0 - d0) / w
	}
	hi := (c1 - d0) / w
	if hi > fm {
		hi = fm
	}
	if lo == 0 && hi == fm {
		buf[0] = Span{I0: 0, I1: m, W: 1}
		return buf[:1], true
	}
	return AxisSpans(lo, hi, m, buf[:0]), true
}

// fmax is math.Max with ordered operands compared inline; equal or
// unordered ones (±0, NaN) still take math.Max's rules.
func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	if a < b {
		return b
	}
	return math.Max(a, b)
}

// fmin is math.Min with ordered operands compared inline; equal or
// unordered ones (±0, NaN) still take math.Min's rules.
func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	if a > b {
		return b
	}
	return math.Min(a, b)
}
