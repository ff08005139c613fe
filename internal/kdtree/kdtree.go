// Package kdtree implements the recursive-partitioning baselines the
// paper compares against (Cormode et al., "Differentially private spatial
// decompositions", ICDE 2012):
//
//   - KD-standard (Kst): a binary kd-tree that splits nodes at a
//     differentially private median chosen with the exponential
//     mechanism, alternating the split dimension per level. Half of the
//     privacy budget pays for the medians, half for noisy counts spread
//     uniformly over the levels. Queries descend the tree greedily,
//     answering fully covered nodes from their own noisy counts.
//
//   - KD-hybrid (Khy): the best-performing configuration of [3] — the
//     first few levels are a quadtree (midpoint splits, no structure
//     budget), the remaining levels are kd median splits; the count
//     budget is allocated geometrically (more budget near the leaves,
//     ratio 2^(1/3) per level) and constrained inference reconciles the
//     levels after noising.
//
// Both trees keep counts at every level, which is what lets interior
// portions of a query be answered high up the tree.
package kdtree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/infer"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// Method selects the tree variant.
type Method int

const (
	// Standard is the paper's Kst baseline.
	Standard Method = iota
	// Hybrid is the paper's Khy baseline.
	Hybrid
)

func (m Method) String() string {
	switch m {
	case Standard:
		return "KD-standard"
	case Hybrid:
		return "KD-hybrid"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures BuildTree. The zero value (with a Method) gives the
// defaults described in the package comment.
type Options struct {
	// Method selects KD-standard or KD-hybrid.
	Method Method
	// Depth fixes the number of split levels. 0 derives it from the data
	// so that the leaf population is comparable to a Guideline-1 UG grid
	// (which also reproduces [3]'s observation that trees over 1M points
	// reach ~16 levels).
	Depth int
	// QuadLevels is the number of quadtree levels at the top of a Hybrid
	// tree; 0 means 4. Ignored by Standard.
	QuadLevels int
	// MedianBudgetFrac is the fraction of eps spent choosing medians.
	// 0 means 0.5 for Standard ([3] splits the budget evenly between
	// structure and counts) and 0.3 for Hybrid (its quadtree levels are
	// free, so less structure budget is needed). Set to a negative value
	// to force 0 (only legal when no kd levels exist).
	MedianBudgetFrac float64
	// GeometricAlloc selects geometric count-budget allocation across
	// levels. Defaults to true for Hybrid, false for Standard.
	// Use the pointer-free tri-state: 0 default, 1 on, -1 off.
	GeometricAlloc int
	// ConstrainedInference runs tree CI after noising. Defaults to true
	// for Hybrid, false for Standard. Tri-state as above.
	ConstrainedInference int
}

// MaxDepth bounds tree depth regardless of options.
const MaxDepth = 24

type treeNode struct {
	rect     geom.Rect
	children []int
	count    float64 // noisy count
	variance float64
}

// Tree is a released kd-tree/quadtree synopsis.
type Tree struct {
	dom       geom.Domain
	eps       float64
	method    Method
	depth     int
	nodes     []treeNode
	estimates []float64 // post-CI estimates (or raw noisy counts)
	leaves    int
	usedCI    bool
}

// BuildTree constructs a Kst or Khy synopsis of points over dom under
// eps-differential privacy. points is not modified (the builder works on a
// copy so it can partition in place).
func BuildTree(points []geom.Point, dom geom.Domain, eps float64, opts Options, src noise.Source) (*Tree, error) {
	if src == nil {
		return nil, errors.New("kdtree: nil noise source")
	}
	if _, err := noise.NewBudget(eps); err != nil {
		return nil, fmt.Errorf("kdtree: %w", err)
	}
	if opts.Method != Standard && opts.Method != Hybrid {
		return nil, fmt.Errorf("kdtree: unknown method %d", int(opts.Method))
	}
	if opts.Depth < 0 || opts.Depth > MaxDepth {
		return nil, fmt.Errorf("kdtree: depth must be in [0, %d], got %d", MaxDepth, opts.Depth)
	}
	if opts.QuadLevels < 0 {
		return nil, fmt.Errorf("kdtree: QuadLevels must be >= 0, got %d", opts.QuadLevels)
	}
	if !(opts.MedianBudgetFrac < 1) {
		return nil, fmt.Errorf("kdtree: MedianBudgetFrac must be < 1, got %g", opts.MedianBudgetFrac)
	}

	// Work on an in-domain copy we may reorder freely.
	pts := make([]geom.Point, 0, len(points))
	for _, p := range points {
		if dom.Contains(p) {
			pts = append(pts, p)
		}
	}
	n := len(pts)

	quadLevels := 0
	if opts.Method == Hybrid {
		quadLevels = opts.QuadLevels
		if quadLevels == 0 {
			quadLevels = 4
		}
	}

	// Depth: leaf population comparable to a Guideline-1 UG grid.
	depth := opts.Depth
	if depth == 0 {
		targetLeaves := math.Max(16, float64(n)*eps/10)
		switch opts.Method {
		case Standard:
			depth = int(math.Round(math.Log2(targetLeaves)))
		case Hybrid:
			q := min(quadLevels, int(math.Log2(targetLeaves)/2))
			k := int(math.Round(math.Log2(targetLeaves / math.Pow(4, float64(q)))))
			depth = q + max(0, k)
		}
		depth = clampInt(depth, 2, 20)
	}
	if quadLevels > depth {
		quadLevels = depth
	}
	kdLevels := depth - quadLevels

	medianFrac := opts.MedianBudgetFrac
	switch {
	case medianFrac < 0:
		medianFrac = 0
	case medianFrac == 0:
		if opts.Method == Standard {
			medianFrac = 0.5
		} else {
			medianFrac = 0.3
		}
	}
	if kdLevels == 0 {
		medianFrac = 0 // pure quadtree needs no structure budget
	}
	epsMedian := eps * medianFrac
	epsCount := eps - epsMedian
	var epsMedianPerLevel float64
	if kdLevels > 0 {
		epsMedianPerLevel = epsMedian / float64(kdLevels)
	}

	geo := opts.GeometricAlloc == 1 || (opts.GeometricAlloc == 0 && opts.Method == Hybrid)
	useCI := opts.ConstrainedInference == 1 || (opts.ConstrainedInference == 0 && opts.Method == Hybrid)

	// Count budget per level (levels 0..depth carry counts; level 0 is the
	// root). Geometric allocation puts more budget near the leaves with
	// ratio 2^(1/3) per level, per [3].
	levelEps := make([]float64, depth+1)
	if geo {
		r := math.Pow(2, 1.0/3.0)
		var total float64
		for i := range levelEps {
			levelEps[i] = math.Pow(r, float64(i))
			total += levelEps[i]
		}
		for i := range levelEps {
			levelEps[i] = epsCount * levelEps[i] / total
		}
	} else {
		for i := range levelEps {
			levelEps[i] = epsCount / float64(depth+1)
		}
	}

	t := &Tree{dom: dom, eps: eps, method: opts.Method, depth: depth, usedCI: useCI}
	b := &builder{
		tree:       t,
		src:        src,
		depth:      depth,
		quadLevels: quadLevels,
		epsMedian:  epsMedianPerLevel,
		levelEps:   levelEps,
	}
	b.build(pts, dom.Rect, 0) // root is always node 0
	b.noiseCounts()

	if useCI {
		forest := &infer.Forest{Nodes: make([]infer.Node, len(t.nodes)), Roots: []int{0}}
		for i, node := range t.nodes {
			forest.Nodes[i] = infer.Node{Count: node.count, Variance: node.variance, Children: node.children}
		}
		est, err := forest.Infer()
		if err != nil {
			return nil, fmt.Errorf("kdtree: %w", err)
		}
		t.estimates = est
	} else {
		t.estimates = make([]float64, len(t.nodes))
		for i, node := range t.nodes {
			t.estimates[i] = node.count
		}
	}
	return t, nil
}

// builder carries construction state. During build, treeNode.count holds
// the exact count and treeNode.variance the level's epsilon; noiseCounts
// converts both to their released meanings.
type builder struct {
	tree       *Tree
	src        noise.Source
	depth      int
	quadLevels int
	epsMedian  float64
	levelEps   []float64
}

// build recursively constructs the subtree over pts (which it may
// reorder) covering rect at the given level, returning the node index.
func (b *builder) build(pts []geom.Point, rect geom.Rect, level int) int {
	idx := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, treeNode{
		rect:     rect,
		count:    float64(len(pts)),
		variance: b.levelEps[level],
	})
	if level == b.depth {
		b.tree.leaves++
		return idx
	}
	if level < b.quadLevels {
		// Quadtree: midpoint split into four children.
		midX := (rect.MinX + rect.MaxX) / 2
		midY := (rect.MinY + rect.MaxY) / 2
		left := partitionPoints(pts, func(p geom.Point) bool { return p.X < midX })
		lowLeft := partitionPoints(pts[:left], func(p geom.Point) bool { return p.Y < midY })
		lowRight := partitionPoints(pts[left:], func(p geom.Point) bool { return p.Y < midY })
		quads := []struct {
			pts  []geom.Point
			rect geom.Rect
		}{
			{pts[:lowLeft], geom.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: midX, MaxY: midY}},
			{pts[lowLeft:left], geom.Rect{MinX: rect.MinX, MinY: midY, MaxX: midX, MaxY: rect.MaxY}},
			{pts[left : left+lowRight], geom.Rect{MinX: midX, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: midY}},
			{pts[left+lowRight:], geom.Rect{MinX: midX, MinY: midY, MaxX: rect.MaxX, MaxY: rect.MaxY}},
		}
		children := make([]int, 0, 4)
		for _, q := range quads {
			children = append(children, b.build(q.pts, q.rect, level+1))
		}
		b.tree.nodes[idx].children = children
		return idx
	}

	// KD level: split at a DP median along the alternating dimension.
	splitX := (level-b.quadLevels)%2 == 0
	var lo, hi float64
	if splitX {
		lo, hi = rect.MinX, rect.MaxX
	} else {
		lo, hi = rect.MinY, rect.MaxY
	}
	split := b.dpMedian(pts, splitX, lo, hi)

	var cut int
	if splitX {
		cut = partitionPoints(pts, func(p geom.Point) bool { return p.X < split })
	} else {
		cut = partitionPoints(pts, func(p geom.Point) bool { return p.Y < split })
	}
	var leftRect, rightRect geom.Rect
	if splitX {
		leftRect = geom.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: split, MaxY: rect.MaxY}
		rightRect = geom.Rect{MinX: split, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: rect.MaxY}
	} else {
		leftRect = geom.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: split}
		rightRect = geom.Rect{MinX: rect.MinX, MinY: split, MaxX: rect.MaxX, MaxY: rect.MaxY}
	}
	l := b.build(pts[:cut], leftRect, level+1)
	r := b.build(pts[cut:], rightRect, level+1)
	b.tree.nodes[idx].children = []int{l, r}
	return idx
}

// dpMedian picks a split coordinate in [lo, hi] with the exponential
// mechanism: candidate intervals between consecutive sorted coordinates,
// utility -(rank imbalance), base weight the interval length. Utility has
// sensitivity 1 under tuple addition/removal. With no budget or no data it
// degrades to the midpoint.
func (b *builder) dpMedian(pts []geom.Point, useX bool, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	if len(pts) == 0 || b.epsMedian <= 0 {
		return (lo + hi) / 2
	}
	coords := make([]float64, len(pts))
	for i, p := range pts {
		if useX {
			coords[i] = p.X
		} else {
			coords[i] = p.Y
		}
	}
	sort.Float64s(coords)
	n := len(coords)
	// Interval i spans [bound[i], bound[i+1]] with i points to the left.
	utility := make([]float64, n+1)
	lengths := make([]float64, n+1)
	prev := lo
	for i := 0; i <= n; i++ {
		var next float64
		if i == n {
			next = hi
		} else {
			next = math.Min(math.Max(coords[i], lo), hi)
		}
		utility[i] = -math.Abs(float64(2*i - n))
		lengths[i] = math.Max(0, next-prev)
		prev = next
	}
	choice, err := noise.ExponentialMechanism(b.src, b.epsMedian, 1, utility, lengths)
	if err != nil {
		// All intervals degenerate (e.g. every coordinate identical at an
		// endpoint): fall back to the midpoint.
		return (lo + hi) / 2
	}
	// Uniform position inside the chosen interval.
	start := lo
	if choice > 0 {
		start = math.Min(math.Max(coords[choice-1], lo), hi)
	}
	end := hi
	if choice < n {
		end = math.Min(math.Max(coords[choice], lo), hi)
	}
	return start + b.src.Uniform()*(end-start)
}

// noiseCounts replaces each node's exact count with a noisy one and its
// stashed level epsilon with the released noise variance.
func (b *builder) noiseCounts() {
	for i := range b.tree.nodes {
		node := &b.tree.nodes[i]
		epsLevel := node.variance
		scale := 1 / epsLevel
		node.count += noise.Laplace(b.src, scale)
		node.variance = 2 * scale * scale
	}
}

// partitionPoints reorders pts so that elements satisfying pred come
// first, returning the boundary index.
func partitionPoints(pts []geom.Point, pred func(geom.Point) bool) int {
	i := 0
	j := len(pts) - 1
	for i <= j {
		if pred(pts[i]) {
			i++
			continue
		}
		pts[i], pts[j] = pts[j], pts[i]
		j--
	}
	return i
}

// Query estimates the number of data points in r by greedy descent: fully
// covered nodes answer with their estimate, partially covered leaves use
// the uniformity assumption, partially covered internal nodes recurse.
func (t *Tree) Query(r geom.Rect) float64 {
	clipped, ok := t.dom.Clip(r)
	if !ok {
		return 0
	}
	return t.queryNode(0, clipped)
}

func (t *Tree) queryNode(i int, r geom.Rect) float64 {
	node := &t.nodes[i]
	inter, ok := node.rect.Intersect(r)
	if !ok || inter.Area() == 0 {
		return 0
	}
	if r.ContainsRect(node.rect) {
		return t.estimates[i]
	}
	if len(node.children) == 0 {
		return t.estimates[i] * node.rect.OverlapFraction(r)
	}
	var total float64
	for _, c := range node.children {
		total += t.queryNode(c, r)
	}
	return total
}

// Depth returns the number of split levels.
func (t *Tree) Depth() int { return t.depth }

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return t.leaves }

// Nodes returns the total number of tree nodes.
func (t *Tree) Nodes() int { return len(t.nodes) }

// Method returns the tree variant.
func (t *Tree) Method() Method { return t.method }

// Epsilon returns the total privacy budget consumed.
func (t *Tree) Epsilon() float64 { return t.eps }

// Domain returns the synopsis domain.
func (t *Tree) Domain() geom.Domain { return t.dom }

// UsedConstrainedInference reports whether CI post-processing ran.
func (t *Tree) UsedConstrainedInference() bool { return t.usedCI }

// TotalEstimate returns the noisy estimate of the dataset size (the root
// estimate).
func (t *Tree) TotalEstimate() float64 {
	if len(t.estimates) == 0 {
		return 0
	}
	return t.estimates[0]
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
