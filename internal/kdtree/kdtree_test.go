package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pointindex"
)

func uniformPoints(seed int64, n int, dom geom.Domain) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: dom.MinX + rng.Float64()*dom.Width(),
			Y: dom.MinY + rng.Float64()*dom.Height(),
		}
	}
	return pts
}

func TestBuildTreeValidation(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(1, 100, dom)
	src := noise.NewSource(1)
	cases := []struct {
		name string
		eps  float64
		opts Options
		src  noise.Source
	}{
		{"zero eps", 0, Options{}, src},
		{"nil source", 1, Options{}, nil},
		{"bad method", 1, Options{Method: Method(9)}, src},
		{"negative depth", 1, Options{Depth: -1}, src},
		{"excess depth", 1, Options{Depth: MaxDepth + 1}, src},
		{"negative quad levels", 1, Options{Method: Hybrid, QuadLevels: -1}, src},
		{"median frac 1", 1, Options{MedianBudgetFrac: 1}, src},
		{"median frac NaN", 1, Options{MedianBudgetFrac: math.NaN()}, src},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildTree(pts, dom, tc.eps, tc.opts, tc.src); err == nil {
				t.Error("accepted, want error")
			}
		})
	}
}

func TestPartitionPoints(t *testing.T) {
	pts := []geom.Point{{X: 5}, {X: 1}, {X: 3}, {X: 8}, {X: 2}}
	cut := partitionPoints(pts, func(p geom.Point) bool { return p.X < 4 })
	if cut != 3 {
		t.Fatalf("cut = %d, want 3", cut)
	}
	for _, p := range pts[:cut] {
		if p.X >= 4 {
			t.Errorf("left side contains %g", p.X)
		}
	}
	for _, p := range pts[cut:] {
		if p.X < 4 {
			t.Errorf("right side contains %g", p.X)
		}
	}
}

func TestPartitionPointsEdgeCases(t *testing.T) {
	if got := partitionPoints(nil, func(geom.Point) bool { return true }); got != 0 {
		t.Errorf("empty partition = %d", got)
	}
	all := []geom.Point{{X: 1}, {X: 2}}
	if got := partitionPoints(all, func(geom.Point) bool { return true }); got != 2 {
		t.Errorf("all-true partition = %d, want 2", got)
	}
	if got := partitionPoints(all, func(geom.Point) bool { return false }); got != 0 {
		t.Errorf("all-false partition = %d, want 0", got)
	}
}

func TestTreeStructure(t *testing.T) {
	dom := geom.MustDomain(0, 0, 16, 16)
	pts := uniformPoints(2, 10000, dom)

	kst, err := BuildTree(pts, dom, 1, Options{Method: Standard, Depth: 6}, noise.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	if kst.Depth() != 6 {
		t.Errorf("Kst depth = %d, want 6", kst.Depth())
	}
	if kst.Leaves() != 64 { // binary, 2^6
		t.Errorf("Kst leaves = %d, want 64", kst.Leaves())
	}
	if kst.UsedConstrainedInference() {
		t.Error("Kst should not use CI by default")
	}

	khy, err := BuildTree(pts, dom, 1, Options{Method: Hybrid, Depth: 5, QuadLevels: 3}, noise.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	if khy.Leaves() != 4*4*4*2*2 { // 3 quad levels then 2 binary
		t.Errorf("Khy leaves = %d, want 256", khy.Leaves())
	}
	if !khy.UsedConstrainedInference() {
		t.Error("Khy should use CI by default")
	}
}

func TestTreePartitionPreservesCounts(t *testing.T) {
	// With zero noise, every internal node's exact count must equal the
	// sum of its children's — the partition must not lose or duplicate
	// points.
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(4, 5000, dom)
	tree, err := BuildTree(pts, dom, 1, Options{Method: Hybrid, Depth: 6, QuadLevels: 2}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range tree.nodes {
		if len(node.children) == 0 {
			continue
		}
		var sum float64
		for _, c := range node.children {
			sum += tree.nodes[c].count
		}
		if math.Abs(sum-node.count) > 1e-9 {
			t.Fatalf("node %d: children sum %g != count %g", i, sum, node.count)
		}
	}
	if got := tree.nodes[0].count; got != 5000 {
		t.Errorf("root count = %g, want 5000", got)
	}
}

func TestTreeZeroNoiseQueriesReasonable(t *testing.T) {
	// Zero-noise trees answer aligned-with-partition queries exactly; for
	// arbitrary queries only the uniformity error remains, which on a
	// uniform dataset is small.
	dom := geom.MustDomain(0, 0, 8, 8)
	pts := uniformPoints(5, 20000, dom)
	idx, err := pointindex.New(dom, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{Standard, Hybrid} {
		tree, err := BuildTree(pts, dom, 1, Options{Method: method, Depth: 8}, noise.Zero)
		if err != nil {
			t.Fatal(err)
		}
		// Full domain is exact.
		if got := tree.Query(geom.NewRect(0, 0, 8, 8)); math.Abs(got-20000) > 1e-6 {
			t.Errorf("%v full query = %g, want 20000", method, got)
		}
		// Arbitrary query: within a few percent on uniform data.
		r := geom.NewRect(1.3, 2.2, 6.8, 7.1)
		got := tree.Query(r)
		want := float64(idx.Count(r))
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("%v Query(%v) = %g, want ~%g", method, r, got, want)
		}
	}
}

func TestDPMedianConcentratesAroundTrueMedian(t *testing.T) {
	// With a healthy budget the exponential-mechanism median should land
	// near the true median most of the time.
	dom := geom.MustDomain(0, 0, 1, 1)
	rng := rand.New(rand.NewSource(6))
	pts := make([]geom.Point, 2001)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: 0.5}
	}
	b := &builder{src: noise.NewSource(6), epsMedian: 1.0}
	hits := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		m := b.dpMedian(pts, true, 0, 1)
		if m > 0.4 && m < 0.6 {
			hits++
		}
	}
	if frac := float64(hits) / trials; frac < 0.9 {
		t.Errorf("median within (0.4,0.6) fraction = %g, want >= 0.9", frac)
	}
	_ = dom
}

func TestDPMedianDegenerateCases(t *testing.T) {
	b := &builder{src: noise.NewSource(7), epsMedian: 0.5}
	// Empty node: midpoint.
	if got := b.dpMedian(nil, true, 2, 4); got != 3 {
		t.Errorf("empty median = %g, want midpoint 3", got)
	}
	// Degenerate range.
	if got := b.dpMedian(nil, true, 5, 5); got != 5 {
		t.Errorf("degenerate range median = %g, want 5", got)
	}
	// All identical coordinates: still inside [lo, hi].
	pts := []geom.Point{{X: 1, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 0}}
	got := b.dpMedian(pts, true, 0, 2)
	if got < 0 || got > 2 {
		t.Errorf("identical-coords median = %g outside [0,2]", got)
	}
	// Zero budget: midpoint.
	b0 := &builder{src: noise.NewSource(8), epsMedian: 0}
	if got := b0.dpMedian(pts, true, 0, 2); got != 1 {
		t.Errorf("zero-budget median = %g, want 1", got)
	}
}

func TestTreeCIConsistency(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(9, 3000, dom)
	tree, err := BuildTree(pts, dom, 1, Options{Method: Hybrid, Depth: 5}, noise.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range tree.nodes {
		if len(node.children) == 0 {
			continue
		}
		var sum float64
		for _, c := range node.children {
			sum += tree.estimates[c]
		}
		if math.Abs(sum-tree.estimates[i]) > 1e-6*(1+math.Abs(tree.estimates[i])) {
			t.Fatalf("CI inconsistent at node %d: %g vs %g", i, sum, tree.estimates[i])
		}
	}
}

func TestTreeAutoDepthScalesWithData(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	small, err := BuildTree(uniformPoints(10, 1000, dom), dom, 1, Options{Method: Standard}, noise.NewSource(10))
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildTree(uniformPoints(11, 200000, dom), dom, 1, Options{Method: Standard}, noise.NewSource(11))
	if err != nil {
		t.Fatal(err)
	}
	if small.Depth() >= big.Depth() {
		t.Errorf("depth should grow with data: small %d, big %d", small.Depth(), big.Depth())
	}
	// [3] reports ~16 levels for 1M points; at 200k and eps=1 the target
	// is log2(20000) ~ 14.3.
	if big.Depth() < 12 || big.Depth() > 17 {
		t.Errorf("big depth = %d, want ~14", big.Depth())
	}
}

func TestTreeDeterministic(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(12, 4000, dom)
	build := func() float64 {
		tree, err := BuildTree(pts, dom, 0.5, Options{Method: Hybrid, Depth: 6}, noise.NewSource(33))
		if err != nil {
			t.Fatal(err)
		}
		return tree.Query(geom.NewRect(1.5, 2.5, 7.5, 8.5))
	}
	if a, b := build(), build(); a != b {
		t.Errorf("same seed, different results: %g vs %g", a, b)
	}
}

func TestTreeDoesNotMutateInput(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(13, 1000, dom)
	orig := append([]geom.Point(nil), pts...)
	if _, err := BuildTree(pts, dom, 1, Options{Method: Standard, Depth: 5}, noise.NewSource(13)); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatal("BuildTree reordered the caller's point slice")
		}
	}
}

func TestTreeEmptyDataset(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	for _, method := range []Method{Standard, Hybrid} {
		tree, err := BuildTree(nil, dom, 1, Options{Method: method}, noise.NewSource(14))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		_ = tree.Query(geom.NewRect(0, 0, 10, 10)) // must not panic
	}
}

func TestMethodString(t *testing.T) {
	if Standard.String() != "KD-standard" || Hybrid.String() != "KD-hybrid" {
		t.Error("method names wrong")
	}
	if Method(9).String() != "Method(9)" {
		t.Error("unknown method formatting wrong")
	}
}

func TestTreeOutsideDomainQuery(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	tree, err := BuildTree(uniformPoints(15, 100, dom), dom, 1, Options{Method: Standard, Depth: 4}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Query(geom.NewRect(100, 100, 200, 200)); got != 0 {
		t.Errorf("outside query = %g, want 0", got)
	}
}

func TestTreeAccessors(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(21, 500, dom)
	tree, err := BuildTree(pts, dom, 0.9, Options{Method: Hybrid, Depth: 4}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Epsilon() != 0.9 {
		t.Errorf("Epsilon = %g, want 0.9", tree.Epsilon())
	}
	if tree.Domain() != dom {
		t.Errorf("Domain = %v", tree.Domain())
	}
	if tree.Method() != Hybrid {
		t.Errorf("Method = %v, want Hybrid", tree.Method())
	}
	if tree.Nodes() <= tree.Leaves() {
		t.Errorf("Nodes %d should exceed Leaves %d", tree.Nodes(), tree.Leaves())
	}
	if got := tree.TotalEstimate(); math.Abs(got-500) > 1e-6 {
		t.Errorf("TotalEstimate = %g, want 500 (zero noise)", got)
	}
}
