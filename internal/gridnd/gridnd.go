// Package gridnd implements d-dimensional differentially private grids
// for arbitrary d >= 1: dense histograms with d-dimensional prefix sums,
// uniformity-estimate box queries, and flat or hierarchical (constrained
// inference) noising.
//
// Its Hierarchical is the one constrained-inference hierarchy builder:
// package hierarchy (d = 2) runs it on its own leaf histogram. Grid
// answers box queries from grid.SAT, the summed-area table grid.Prefix
// also uses, and keeps only its own coordinate-to-cell transform;
// gridnd's tests cross-validate the two at d = 2. In the reproduction
// it supplies the d = 1, 3 and 4 rows of eval.HierarchyGainByDimension,
// carrying the paper's section IV-C prediction ("hierarchies would
// perform even worse with higher dimensions") past the paper's own
// discussion.
package gridnd

import (
	"errors"
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/infer"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// Domain is the d-dimensional bounding box of a dataset: axis k spans
// [Lo[k], Hi[k]].
type Domain struct {
	Lo, Hi []float64
}

// NewDomain validates and returns a d-dimensional domain.
func NewDomain(lo, hi []float64) (Domain, error) {
	if len(lo) == 0 || len(lo) != len(hi) {
		return Domain{}, fmt.Errorf("gridnd: dimension mismatch lo=%d hi=%d", len(lo), len(hi))
	}
	for k := range lo {
		if math.IsNaN(lo[k]) || math.IsNaN(hi[k]) || math.IsInf(lo[k], 0) || math.IsInf(hi[k], 0) {
			return Domain{}, fmt.Errorf("gridnd: non-finite bound on axis %d", k)
		}
		if !(hi[k] > lo[k]) {
			return Domain{}, fmt.Errorf("gridnd: axis %d has non-positive extent [%g, %g]", k, lo[k], hi[k])
		}
	}
	return Domain{Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...)}, nil
}

// Dims returns the dimensionality d.
func (d Domain) Dims() int { return len(d.Lo) }

// Contains reports whether point p (length d) is inside the domain,
// boundary inclusive. A NaN coordinate is outside.
func (d Domain) Contains(p []float64) bool {
	if len(p) != d.Dims() {
		return false
	}
	for k := range p {
		if !(p[k] >= d.Lo[k] && p[k] <= d.Hi[k]) {
			return false
		}
	}
	return true
}

// Box is a d-dimensional axis-aligned query box.
type Box struct {
	Lo, Hi []float64
}

// Grid is an m^d grid of counts over a domain with O(3^d) box queries via
// a d-dimensional summed-area table.
type Grid struct {
	dom Domain
	d   int
	m   int
	sat grid.SAT
}

// maxCells bounds the total cell count.
const maxCells = 1 << 26

// cellsFor returns m^d, guarding overflow.
func cellsFor(m, d int) (int, error) {
	total := 1
	for i := 0; i < d; i++ {
		if total > maxCells/m {
			return 0, fmt.Errorf("gridnd: %d^%d cells too large", m, d)
		}
		total *= m
	}
	return total, nil
}

// newGrid wraps raw cell values (axis 0 fastest) into a queryable grid.
func newGrid(dom Domain, m int, vals []float64) *Grid {
	dims := make([]int, dom.Dims())
	for k := range dims {
		dims[k] = m
	}
	return &Grid{dom: dom, d: len(dims), m: m, sat: grid.NewSAT(dims, vals)}
}

// advance steps the odometer idx, axis 0 fastest, each digit counting
// 0..n-1, and reports false once it wraps back to all zeros.
func advance(idx []int, n int) bool {
	for k := range idx {
		if idx[k]++; idx[k] < n {
			return true
		}
		idx[k] = 0
	}
	return false
}

// M returns the per-axis grid size.
func (g *Grid) M() int { return g.m }

// Dims returns the dimensionality.
func (g *Grid) Dims() int { return g.d }

// Total returns the sum of all cells.
func (g *Grid) Total() float64 { return g.sat.Total() }

// Query estimates the count inside box under the uniformity assumption.
// box must have the grid's dimensionality; mismatched boxes return 0. A
// NaN bound yields NaN, as grid.Prefix answers one.
func (g *Grid) Query(box Box) float64 {
	if len(box.Lo) != g.d || len(box.Hi) != g.d {
		return 0
	}
	for k := range box.Lo {
		if math.IsNaN(box.Lo[k]) || math.IsNaN(box.Hi[k]) {
			return math.NaN()
		}
	}
	spans := make([][]grid.Span, g.d)
	buf := make([]grid.Span, 3*g.d)
	for k := 0; k < g.d; k++ {
		lo := math.Max(box.Lo[k], g.dom.Lo[k])
		hi := math.Min(box.Hi[k], g.dom.Hi[k])
		if hi <= lo {
			return 0
		}
		scale := float64(g.m) / (g.dom.Hi[k] - g.dom.Lo[k])
		a := (lo - g.dom.Lo[k]) * scale
		b := (hi - g.dom.Lo[k]) * scale
		a = math.Min(math.Max(a, 0), float64(g.m))
		b = math.Min(math.Max(b, 0), float64(g.m))
		spans[k] = grid.AxisSpans(a, b, g.m, buf[3*k:3*k+3])
		if len(spans[k]) == 0 {
			return 0
		}
	}
	// Iterate the cartesian product of per-axis spans.
	choice := make([]int, g.d)
	lo := make([]int, g.d)
	hi := make([]int, g.d)
	var total float64
	for {
		w := 1.0
		for k := 0; k < g.d; k++ {
			sp := spans[k][choice[k]]
			w *= sp.W
			lo[k] = sp.I0
			hi[k] = sp.I1
		}
		total += w * g.sat.BlockSum(lo, hi)
		// Advance the odometer.
		k := 0
		for ; k < g.d; k++ {
			choice[k]++
			if choice[k] < len(spans[k]) {
				break
			}
			choice[k] = 0
		}
		if k == g.d {
			break
		}
	}
	return total
}

// histogram counts points (each length d) into the m^d grid, axis 0
// fastest. Out-of-domain points are dropped.
func histogram(points [][]float64, dom Domain, m int) ([]float64, error) {
	d := dom.Dims()
	total, err := cellsFor(m, d)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, total)
	for _, p := range points {
		if !dom.Contains(p) {
			continue
		}
		pi := 0
		stride := 1
		for k := 0; k < d; k++ {
			scale := float64(m) / (dom.Hi[k] - dom.Lo[k])
			i := int((p[k] - dom.Lo[k]) * scale)
			if i >= m {
				i = m - 1
			}
			if i < 0 {
				i = 0
			}
			pi += i * stride
			stride *= m
		}
		vals[pi]++
	}
	return vals, nil
}

func validate(dom Domain, m int, eps float64, src noise.Source) error {
	if src == nil {
		return errors.New("gridnd: nil noise source")
	}
	if dom.Dims() == 0 {
		return errors.New("gridnd: zero-dimensional domain")
	}
	if m < 1 {
		return fmt.Errorf("gridnd: grid size must be positive, got %d", m)
	}
	if !(eps > 0) {
		return fmt.Errorf("gridnd: epsilon must be positive, got %g", eps)
	}
	return nil
}

// BuildFlat releases a flat eps-DP m^d grid.
func BuildFlat(points [][]float64, dom Domain, m int, eps float64, src noise.Source) (*Grid, error) {
	if err := validate(dom, m, eps, src); err != nil {
		return nil, err
	}
	vals, err := histogram(points, dom, m)
	if err != nil {
		return nil, err
	}
	mech, err := noise.NewMechanism(eps, 1, src)
	if err != nil {
		return nil, fmt.Errorf("gridnd: %w", err)
	}
	mech.PerturbAll(vals)
	return newGrid(dom, m, vals), nil
}

// BuildHierarchical releases an eps-DP m^d grid through a hierarchy that
// groups b^d cells per level (depth levels, eps/depth per level) with
// constrained inference; see Hierarchical.
func BuildHierarchical(points [][]float64, dom Domain, m, b, depth int, eps float64, src noise.Source) (*Grid, error) {
	if err := validate(dom, m, eps, src); err != nil {
		return nil, err
	}
	leaves, err := histogram(points, dom, m)
	if err != nil {
		return nil, err
	}
	est, err := Hierarchical(leaves, dom.Dims(), m, b, depth, eps, src)
	if err != nil {
		return nil, err
	}
	return newGrid(dom, m, est), nil
}

// LevelSizes returns the per-axis size of each of the depth levels of a
// hierarchy over an m-cell axis, leaf first: m, m/b, m/b^2, ... Every
// level must divide evenly by the branching factor b, which must be at
// least 2 when there is more than one level.
func LevelSizes(m, b, depth int) ([]int, error) {
	if m < 1 {
		return nil, fmt.Errorf("gridnd: grid size must be positive, got %d", m)
	}
	if depth < 1 {
		return nil, fmt.Errorf("gridnd: depth must be >= 1, got %d", depth)
	}
	if depth > 1 && b < 2 {
		return nil, fmt.Errorf("gridnd: branching must be >= 2, got %d", b)
	}
	// Grow the list level by level rather than sizing it by depth: a
	// decoded depth is untrusted, and a level of size 1 stops the loop
	// after at most log2(m) divisions.
	sizes := []int{m}
	for len(sizes) < depth {
		last := sizes[len(sizes)-1]
		if last%b != 0 {
			return nil, fmt.Errorf("gridnd: level size %d not divisible by branching %d", last, b)
		}
		sizes = append(sizes, last/b)
	}
	return sizes, nil
}

// Hierarchical is the Hay et al. hierarchy behind every hierarchical
// release in the repository. leaves is an exact m^d histogram, axis 0
// fastest; each coarser level (shaped by LevelSizes) sums b^d cells of
// the level below. Every level's sums get Laplace noise at eps/depth,
// so the release spends eps in total, and constrained inference
// (package infer) reconciles the levels. It returns the m^d leaf
// estimates in the layout of leaves and does not modify leaves.
func Hierarchical(leaves []float64, d, m, b, depth int, eps float64, src noise.Source) ([]float64, error) {
	if d < 1 {
		return nil, fmt.Errorf("gridnd: dimension must be >= 1, got %d", d)
	}
	sizes, err := LevelSizes(m, b, depth)
	if err != nil {
		return nil, err
	}
	mech, err := noise.NewMechanism(eps/float64(depth), 1, src)
	if err != nil {
		return nil, fmt.Errorf("gridnd: %w", err)
	}

	// One node per cell of every level, leaves first: level l occupies
	// counts[offsets[l]:offsets[l+1]].
	offsets := make([]int, depth+1)
	for l, sm := range sizes {
		n, err := cellsFor(sm, d)
		if err != nil {
			return nil, err
		}
		offsets[l+1] = offsets[l] + n
	}
	if len(leaves) != offsets[1] {
		return nil, fmt.Errorf("gridnd: %d leaves for a %d^%d grid", len(leaves), m, d)
	}
	counts := make([]float64, offsets[depth])
	copy(counts, leaves)
	level := func(l int) []float64 { return counts[offsets[l]:offsets[l+1]] }
	for l := 1; l < depth; l++ {
		sumLevel(level(l), level(l-1), d, sizes[l-1], b)
	}
	for l := 0; l < depth; l++ {
		mech.PerturbAll(level(l))
	}

	forest := &infer.Forest{
		Nodes: make([]infer.Node, len(counts)),
		Roots: make([]int, 0, offsets[depth]-offsets[depth-1]),
	}
	variance := mech.Variance()
	for i, c := range counts {
		forest.Nodes[i] = infer.Node{Count: c, Variance: variance}
	}
	for l := 1; l < depth; l++ {
		linkChildren(forest.Nodes[offsets[l]:offsets[l+1]], offsets[l-1], d, sizes[l-1], b)
	}
	for i := offsets[depth-1]; i < offsets[depth]; i++ {
		forest.Roots = append(forest.Roots, i)
	}
	est, err := forest.Infer()
	if err != nil {
		return nil, fmt.Errorf("gridnd: %w", err)
	}
	return est[:offsets[1]:offsets[1]], nil
}

// sumLevel adds every cell of fine, an fm^d level, into the cell of
// coarse that groups it with its b^d siblings, in fine's cell order.
func sumLevel(coarse, fine []float64, d, fm, b int) {
	sm := fm / b
	rest := make([]int, d-1) // the fine row's position on axes 1..d-1
	for f := 0; f < len(fine); {
		row, stride := 0, sm
		for _, i := range rest {
			row += i / b * stride
			stride *= sm
		}
		for c := row; c < row+sm; c++ {
			for j := 0; j < b; j++ {
				coarse[c] += fine[f]
				f++
			}
		}
		advance(rest, fm)
	}
}

// linkChildren points each node of a coarse level at its b^d children
// in the fm^d level whose first node is fineOff, axis 0 fastest. The
// child lists share one backing slice.
func linkChildren(nodes []infer.Node, fineOff, d, fm, b int) {
	// sub[j] is the j-th child's offset from its parent's first child.
	var sub []int
	digit := make([]int, d)
	for {
		off, stride := 0, 1
		for _, i := range digit {
			off += i * stride
			stride *= fm
		}
		sub = append(sub, off)
		if !advance(digit, b) {
			break
		}
	}
	fanout := len(sub)
	children := make([]int, len(nodes)*fanout)
	idx := make([]int, d)
	for n := range nodes {
		first, stride := fineOff, 1
		for _, i := range idx {
			first += i * b * stride
			stride *= fm
		}
		ch := children[n*fanout : (n+1)*fanout : (n+1)*fanout]
		for j, off := range sub {
			ch[j] = first + off
		}
		nodes[n].Children = ch
		advance(idx, fm/b)
	}
}
