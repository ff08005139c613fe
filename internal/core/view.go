package core

import (
	"io"
	"math"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Zero-copy synopsis views — what every served UG or AG release with a
// stored SAT section loads as, whether its bytes are mapped, read from
// a file or uploaded. A view keeps the container bytes it was decoded
// from and answers queries through grid.RawPrefix tables that read the
// stored summed-area sections in place: decoding allocates descriptors
// (O(m1^2) for AG, O(1) for UG), never a float payload, and a query
// touches a handful of bytes instead of a heap copy of the grid.
// The decode-time bitwise SAT check (codec.CheckSATRaw) plus
// RawPrefix's answer-identical arithmetic make a view's estimates
// bit-for-bit equal to the materializing parsers' — the differential
// suite locks that.
//
// Views borrow their bytes: the caller (dpgrid.MappedSynopsis, the
// serving loaders, or any direct user of ParseUniformGridBinaryView/
// ParseAdaptiveGridBinaryView) must keep the underlying buffer immutable
// and alive for the view's lifetime.

// UGView is the zero-copy form of UniformGrid over a container with a
// stored SAT section.
type UGView struct {
	raw    []byte // the complete dpgridv2 container
	eps    float64
	m      int
	prefix *grid.RawPrefix
}

// Query estimates the number of data points in r.
func (v *UGView) Query(r geom.Rect) float64 { return v.prefix.Query(r) }

// GridSize returns the nominal grid size m.
func (v *UGView) GridSize() int { return v.m }

// Dims returns the actual grid dimensions.
func (v *UGView) Dims() (mx, my int) { return v.prefix.Dims() }

// Epsilon returns the total privacy budget the synopsis consumed.
func (v *UGView) Epsilon() float64 { return v.eps }

// Domain returns the synopsis domain.
func (v *UGView) Domain() geom.Domain { return v.prefix.Domain() }

// TotalEstimate returns the noisy estimate of the dataset size.
func (v *UGView) TotalEstimate() float64 { return v.prefix.Total() }

// SATBacked reports that queries are served from the stored summed-area
// section; always true for a view (containers without the section fall
// back to the materializing parser).
func (v *UGView) SATBacked() bool { return true }

// ContainerKind reports the synopsis's container kind.
func (v *UGView) ContainerKind() codec.Kind { return codec.KindUniform }

// AppendBinary appends the container verbatim — the view already is the
// serialized form, so re-encoding is a copy and trivially canonical.
func (v *UGView) AppendBinary(dst []byte) ([]byte, error) {
	return append(dst, v.raw...), nil
}

// WriteTo serializes the synopsis as JSON: the bytes the copying parser's
// UniformGrid writes for the same container. JSON export is rare, so it
// decodes a copy rather than keeping a second encoder in step.
func (v *UGView) WriteTo(w io.Writer) (int64, error) {
	u, err := ParseUniformGridBinary(v.raw)
	if err != nil {
		return 0, err
	}
	return u.WriteTo(w)
}

// agViewCell is agCell with a zero-copy leaves table.
type agViewCell struct {
	rect   geom.Rect
	m2     int
	total  float64 // the cell table's total (its sums section's last entry)
	leaves *grid.RawPrefix
}

// AGView is the zero-copy form of AdaptiveGrid over a container with a
// stored SAT section. Its level-1 table serves interior block sums from
// the mapped SAT trailer; boundary cells query their mapped per-cell
// sums tables.
type AGView struct {
	raw    []byte // the complete dpgridv2 container
	eps    float64
	alpha  float64
	m1     int
	level1 *grid.RawPrefix
	cells  []agViewCell // row-major m1*m1
}

// Query estimates the number of data points in r. The algorithm is
// AdaptiveGrid.Query verbatim — interior first-level cells through the
// level-1 block sum, boundary cells through their leaves — with every
// table read resolving into the mapped bytes.
func (v *AGView) Query(r geom.Rect) float64 {
	dom := v.level1.Domain()
	clipped, ok := dom.Clip(r)
	if !ok {
		return 0
	}
	m1 := v.m1
	w, h := dom.CellSize(m1, m1)
	bx0 := clampInt(int(math.Floor((clipped.MinX-dom.MinX)/w)), 0, m1-1)
	by0 := clampInt(int(math.Floor((clipped.MinY-dom.MinY)/h)), 0, m1-1)
	// Half-open high edges, mirroring AdaptiveGrid.Query: exclude the
	// zero-overlap column/row when MaxX/MaxY land exactly on a boundary.
	bx1 := clampInt(int(math.Ceil((clipped.MaxX-dom.MinX)/w))-1, bx0, m1-1)
	by1 := clampInt(int(math.Ceil((clipped.MaxY-dom.MinY)/h))-1, by0, m1-1)

	// Aligned fast path, mirroring AdaptiveGrid.Query: a rect containing
	// every touched first-level cell is one O(1) block sum.
	lo, hi := &v.cells[by0*m1+bx0], &v.cells[by1*m1+bx1]
	if clipped.ContainsRect(geom.NewRect(lo.rect.MinX, lo.rect.MinY, hi.rect.MaxX, hi.rect.MaxY)) {
		return v.level1.BlockSum(bx0, by0, bx1+1, by1+1)
	}

	var total float64
	if bx0+1 < bx1 && by0+1 < by1 {
		total += v.level1.BlockSum(bx0+1, by0+1, bx1, by1)
	}

	cellQuery := func(bx, by int) {
		cell := &v.cells[by*m1+bx]
		if clipped.ContainsRect(cell.rect) {
			total += cell.total
			return
		}
		total += cell.leaves.Query(clipped)
	}
	for by := by0; by <= by1; by++ {
		cellQuery(bx0, by)
		if bx1 != bx0 {
			cellQuery(bx1, by)
		}
	}
	for bx := bx0 + 1; bx < bx1; bx++ {
		cellQuery(bx, by0)
		if by1 != by0 {
			cellQuery(bx, by1)
		}
	}
	return total
}

// M1 returns the first-level grid size.
func (v *AGView) M1() int { return v.m1 }

// Alpha returns the budget split parameter.
func (v *AGView) Alpha() float64 { return v.alpha }

// Epsilon returns the total privacy budget consumed.
func (v *AGView) Epsilon() float64 { return v.eps }

// Domain returns the synopsis domain.
func (v *AGView) Domain() geom.Domain { return v.level1.Domain() }

// TotalEstimate returns the noisy estimate of the dataset size.
func (v *AGView) TotalEstimate() float64 { return v.level1.Total() }

// SATBacked reports that queries are served from the stored summed-area
// section; always true for a view.
func (v *AGView) SATBacked() bool { return true }

// ContainerKind reports the synopsis's container kind.
func (v *AGView) ContainerKind() codec.Kind { return codec.KindAdaptive }

// AppendBinary appends the container verbatim (see UGView.AppendBinary).
func (v *AGView) AppendBinary(dst []byte) ([]byte, error) {
	return append(dst, v.raw...), nil
}

// WriteTo serializes the synopsis as JSON (see UGView.WriteTo).
func (v *AGView) WriteTo(w io.Writer) (int64, error) {
	a, err := ParseAdaptiveGridBinary(v.raw)
	if err != nil {
		return 0, err
	}
	return a.WriteTo(w)
}
