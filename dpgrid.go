package dpgrid

import (
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/hierarchy"
	"github.com/dpgrid/dpgrid/internal/kdtree"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pool"
	"github.com/dpgrid/dpgrid/internal/wavelet"
)

// Point is a data tuple viewed as a point in the plane.
type Point = geom.Point

// Rect is an axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY].
type Rect = geom.Rect

// Domain is the bounding rectangle of a dataset; its boundaries are
// public knowledge and part of every released synopsis.
type Domain = geom.Domain

// NewRect returns the rectangle with the given corners, normalizing the
// corner order.
func NewRect(x0, y0, x1, y1 float64) Rect { return geom.NewRect(x0, y0, x1, y1) }

// NewDomain returns a Domain with the given bounds, validating that they
// are finite with positive extent.
func NewDomain(minX, minY, maxX, maxY float64) (Domain, error) {
	return geom.NewDomain(minX, minY, maxX, maxY)
}

// NoiseSource supplies the randomness for every mechanism. Uniform must
// return values in [0, 1). A NoiseSource is not safe for concurrent use
// unless documented otherwise; parallel construction requires a
// ForkableNoiseSource so each worker can draw from its own sub-stream.
type NoiseSource = noise.Source

// ForkableNoiseSource is a NoiseSource that derives independent,
// reproducible sub-streams keyed by index. It is what makes parallel
// synopsis construction deterministic: the noise each grid cell receives
// depends only on (seed, cell index), never on goroutine scheduling.
// NewNoiseSource returns one.
type ForkableNoiseSource = noise.Forkable

// NewNoiseSource returns a deterministic source seeded with seed,
// suitable for reproducible experiments. The result implements
// ForkableNoiseSource, so it works with parallel construction
// (AGOptions.Workers).
func NewNoiseSource(seed int64) NoiseSource { return noise.NewSource(seed) }

// Synopsis is a released differentially private summary that answers
// rectangular count queries. Queries are pure post-processing: they spend
// no additional privacy budget. Every synopsis in this package is
// immutable once built, so Query may be called from multiple goroutines
// concurrently.
type Synopsis interface {
	// Query estimates the number of data points in r.
	Query(r Rect) float64
}

// QueryBatch answers every rectangle in rs against s and returns the
// estimates in input order, fanned out across a worker pool — safe for
// any Synopsis in this package because released synopses are immutable
// and every rect answer is a few table lookups. workers < 1 means one
// worker per CPU.
func QueryBatch(s Synopsis, rs []Rect, workers int) []float64 {
	return pool.Map(rs, workers, s.Query)
}

// UGOptions configures BuildUniformGrid; the zero value applies the
// paper's Guideline 1 defaults. Workers parallelizes the ingestion
// scans (bit-identical output for every value, any NoiseSource).
type UGOptions = core.UGOptions

// AGOptions configures BuildAdaptiveGrid; the zero value applies the
// paper's defaults (alpha = 0.5, c = 10, c2 = 5, m1 rule). Workers
// parallelizes the ingestion scans and the per-cell noise/inference
// pass (Workers > 1 needs a ForkableNoiseSource). Every Workers value
// releases the bit-identical synopsis per seed.
type AGOptions = core.AGOptions

// UniformGrid is the UG synopsis.
type UniformGrid = core.UniformGrid

// AdaptiveGrid is the AG synopsis.
type AdaptiveGrid = core.AdaptiveGrid

// BuildUniformGrid constructs a UG synopsis of points over dom under
// eps-differential privacy.
func BuildUniformGrid(points []Point, dom Domain, eps float64, opts UGOptions, src NoiseSource) (*UniformGrid, error) {
	return core.BuildUniformGrid(points, dom, eps, opts, src)
}

// BuildAdaptiveGrid constructs an AG synopsis of points over dom under
// eps-differential privacy.
func BuildAdaptiveGrid(points []Point, dom Domain, eps float64, opts AGOptions, src NoiseSource) (*AdaptiveGrid, error) {
	return core.BuildAdaptiveGrid(points, dom, eps, opts, src)
}

// SuggestedGridSize returns Guideline 1's grid size for n points under
// budget eps with the default constant c = 10.
func SuggestedGridSize(n int, eps float64) int {
	return core.SuggestedUGSize(float64(n), eps, core.DefaultC)
}

// Baseline methods from the paper's evaluation. These exist so library
// users can reproduce comparisons; for new applications prefer
// BuildAdaptiveGrid.

// KDTreeOptions configures BuildKDTree.
type KDTreeOptions = kdtree.Options

// KDMethod selects the kd-tree variant.
type KDMethod = kdtree.Method

// KD-tree variants.
const (
	KDStandard = kdtree.Standard
	KDHybrid   = kdtree.Hybrid
)

// KDTree is a kd-tree / quadtree synopsis.
type KDTree = kdtree.Tree

// BuildKDTree constructs a KD-standard or KD-hybrid synopsis (Cormode et
// al., ICDE 2012), the recursive-partitioning baseline of the paper.
func BuildKDTree(points []Point, dom Domain, eps float64, opts KDTreeOptions, src NoiseSource) (*KDTree, error) {
	return kdtree.BuildTree(points, dom, eps, opts, src)
}

// PrivletOptions configures BuildPrivlet.
type PrivletOptions = wavelet.Options

// Privlet is a Haar-wavelet synopsis.
type Privlet = wavelet.Privlet

// BuildPrivlet constructs a Privlet wavelet synopsis (Xiao et al., TKDE
// 2011) over an m x m grid.
func BuildPrivlet(points []Point, dom Domain, eps float64, opts PrivletOptions, src NoiseSource) (*Privlet, error) {
	return wavelet.BuildPrivlet(points, dom, eps, opts, src)
}

// HierarchyOptions configures BuildHierarchy.
type HierarchyOptions = hierarchy.Options

// Hierarchy is a multi-level grid synopsis with constrained inference.
type Hierarchy = hierarchy.Hierarchy

// BuildHierarchy constructs an H_{b,d} grid-hierarchy synopsis (the
// paper's Figure 3 baseline).
func BuildHierarchy(points []Point, dom Domain, eps float64, opts HierarchyOptions, src NoiseSource) (*Hierarchy, error) {
	return hierarchy.BuildHierarchy(points, dom, eps, opts, src)
}
