// Package pointindex provides exact rectangle range counting over a static
// point set. The experiment harness uses it to compute the true answer
// A(r) of every query (section V-A of the paper defines relative error
// against exact counts).
//
// The index buckets points into a B x B grid. A query is answered by
// summing fully covered buckets through a prefix-sum table (O(1)) and
// scanning only the O(B) boundary buckets point by point, which makes the
// count exact for arbitrary query rectangles while staying fast for the
// paper's workloads (millions of points, hundreds of queries).
package pointindex

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// Index is an immutable exact range-count index over a point set.
type Index struct {
	dom     geom.Domain
	b       int   // buckets per axis
	starts  []int // CSR offsets: bucket k holds pts[starts[k]:starts[k+1]]
	pts     []geom.Point
	prefix  []int64 // (b+1)^2 prefix sums of bucket counts
	n       int     // indexed (in-domain) points
	dropped int     // points outside the domain, excluded from the index
}

// New builds an index over points within dom. Points outside dom are
// excluded (callers control their data; see Dropped). The bucket grid size
// defaults to ~sqrt(n) per axis, clamped to [1, 1024].
func New(dom geom.Domain, points []geom.Point) (*Index, error) {
	b := int(math.Sqrt(float64(len(points))))
	b = max(1, min(b, 1024))
	return NewWithBuckets(dom, points, b)
}

// NewWithBuckets is New with an explicit buckets-per-axis parameter.
func NewWithBuckets(dom geom.Domain, points []geom.Point, b int) (*Index, error) {
	if b <= 0 {
		return nil, fmt.Errorf("pointindex: buckets per axis must be positive, got %d", b)
	}
	// Bounding b before squaring it keeps the product from overflowing.
	if b > (1<<26)/b {
		return nil, fmt.Errorf("pointindex: %d buckets per axis too large", b)
	}
	idx := &Index{dom: dom, b: b}

	// Counting sort into buckets (CSR layout) — two passes, no per-bucket
	// slice allocations.
	counts := make([]int, b*b)
	inDomain := 0
	for _, p := range points {
		if !dom.Contains(p) {
			idx.dropped++
			continue
		}
		ix, iy := dom.CellIndex(p, b, b)
		counts[iy*b+ix]++
		inDomain++
	}
	idx.n = inDomain
	idx.starts = make([]int, b*b+1)
	for k := 0; k < b*b; k++ {
		idx.starts[k+1] = idx.starts[k] + counts[k]
	}
	idx.pts = make([]geom.Point, inDomain)
	cursor := make([]int, b*b)
	copy(cursor, idx.starts[:b*b])
	for _, p := range points {
		if !dom.Contains(p) {
			continue
		}
		ix, iy := dom.CellIndex(p, b, b)
		k := iy*b + ix
		idx.pts[cursor[k]] = p
		cursor[k]++
	}

	// Prefix sums of bucket counts for O(1) full-block totals.
	idx.prefix = make([]int64, (b+1)*(b+1))
	for iy := 0; iy < b; iy++ {
		var rowAcc int64
		for ix := 0; ix < b; ix++ {
			rowAcc += int64(counts[iy*b+ix])
			idx.prefix[(iy+1)*(b+1)+(ix+1)] = idx.prefix[iy*(b+1)+(ix+1)] + rowAcc
		}
	}
	return idx, nil
}

// Len returns the number of indexed (in-domain) points.
func (idx *Index) Len() int { return idx.n }

// Dropped returns how many input points fell outside the domain and were
// excluded.
func (idx *Index) Dropped() int { return idx.dropped }

// Domain returns the index's domain.
func (idx *Index) Domain() geom.Domain { return idx.dom }

func (idx *Index) blockCount(ix0, iy0, ix1, iy1 int) int64 {
	w := idx.b + 1
	return idx.prefix[iy1*w+ix1] - idx.prefix[iy0*w+ix1] - idx.prefix[iy1*w+ix0] + idx.prefix[iy0*w+ix0]
}

// Count returns the exact number of indexed points inside r (boundary
// inclusive, matching geom.Rect.Contains).
func (idx *Index) Count(r geom.Rect) int64 {
	clipped, ok := idx.dom.Clip(r)
	if !ok {
		return 0
	}
	b := idx.b
	w, h := idx.dom.CellSize(b, b)
	// Bucket index ranges touched by the query.
	bx0 := clampInt(int(math.Floor((clipped.MinX-idx.dom.MinX)/w)), 0, b-1)
	bx1 := clampInt(int(math.Floor((clipped.MaxX-idx.dom.MinX)/w)), 0, b-1)
	by0 := clampInt(int(math.Floor((clipped.MinY-idx.dom.MinY)/h)), 0, b-1)
	by1 := clampInt(int(math.Floor((clipped.MaxY-idx.dom.MinY)/h)), 0, b-1)

	// Interior buckets are fully covered only if strictly inside the touched
	// range on both axes; the first/last touched row/column may be partial.
	ix0, ix1 := bx0+1, bx1 // full columns in [ix0, ix1)
	iy0, iy1 := by0+1, by1
	var total int64
	if ix0 < ix1 && iy0 < iy1 {
		total += idx.blockCount(ix0, iy0, ix1, iy1)
	}

	scanBucket := func(bx, by int) {
		k := by*b + bx
		for _, p := range idx.pts[idx.starts[k]:idx.starts[k+1]] {
			if clipped.Contains(p) {
				total++
			}
		}
	}
	// Boundary buckets: first/last touched column (all rows) and first/last
	// touched row (excluding corners already covered by the columns).
	for by := by0; by <= by1; by++ {
		scanBucket(bx0, by)
		if bx1 != bx0 {
			scanBucket(bx1, by)
		}
	}
	for bx := bx0 + 1; bx < bx1; bx++ {
		scanBucket(bx, by0)
		if by1 != by0 {
			scanBucket(bx, by1)
		}
	}
	return total
}

// CountNaive is the O(n) reference implementation used by property tests.
func (idx *Index) CountNaive(r geom.Rect) int64 {
	clipped, ok := idx.dom.Clip(r)
	if !ok {
		return 0
	}
	var total int64
	for _, p := range idx.pts {
		if clipped.Contains(p) {
			total++
		}
	}
	return total
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
