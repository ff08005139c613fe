// Package datasets generates the four synthetic evaluation datasets that
// stand in for the paper's real-world data (2006 TIGER/Line road
// intersections, Gowalla check-ins, infochimps landmark and storage
// locations), which are not redistributable / retrievable in this
// offline environment.
//
// Each generator is deterministic given a seed and preserves the
// properties the paper's experiments actually exercise: the point count
// N, the domain extent from Table II, and the density structure — large
// blank areas with two dense states (road), world-map-shaped
// multi-scale skew (checkin), population-shaped density over the
// continental US (landmark), and a small-N version of the same
// (storage).
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// Dataset is a generated evaluation dataset together with the metadata
// the experiment harness needs (Table II).
type Dataset struct {
	Name   string
	Points []geom.Point
	Domain geom.Domain
	// QuerySize returns the width and height of query-size class i in
	// [1, 6], per Table II: class 1 is the smallest, each next class
	// doubles both extents, class 6 covers 1/4 to 1/2 of the domain.
	q1w, q1h float64
}

// QuerySize returns the (width, height) of query size class i in [1, 6].
func (d *Dataset) QuerySize(i int) (w, h float64) {
	if i < 1 || i > 6 {
		panic(fmt.Sprintf("datasets: query size class %d out of range [1,6]", i))
	}
	f := math.Pow(2, float64(i-1))
	return d.q1w * f, d.q1h * f
}

// N returns the number of points.
func (d *Dataset) N() int { return len(d.Points) }

// Names lists the available dataset generators.
func Names() []string { return []string{"road", "checkin", "landmark", "storage"} }

// ByName generates the named dataset at the given scale (1.0 = the
// paper's N from Table II) with the given seed.
func ByName(name string, scale float64, seed int64) (*Dataset, error) {
	if scale <= 0 || scale > 4 {
		return nil, fmt.Errorf("datasets: scale must be in (0, 4], got %g", scale)
	}
	switch name {
	case "road":
		return Road(scale, seed), nil
	case "checkin":
		return Checkin(scale, seed), nil
	case "landmark":
		return Landmark(scale, seed), nil
	case "storage":
		return Storage(scale, seed), nil
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
	}
}

// cluster is a weighted Gaussian mixture component.
type cluster struct {
	cx, cy float64
	sx, sy float64
	weight float64
}

// sampleClusters draws n points from a mixture of clusters, rejecting
// draws that land outside dom. snap > 0 snaps coordinates to a lattice of
// that pitch (plus a small jitter), which produces the street-grid
// micro-structure of road-intersection data.
func sampleClusters(rng *rand.Rand, n int, clusters []cluster, dom geom.Domain, snap float64) []geom.Point {
	cum := make([]float64, len(clusters))
	var total float64
	for i, c := range clusters {
		total += c.weight
		cum[i] = total
	}
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		u := rng.Float64() * total
		k := sort.SearchFloat64s(cum, u)
		if k >= len(clusters) {
			k = len(clusters) - 1
		}
		c := clusters[k]
		x := c.cx + rng.NormFloat64()*c.sx
		y := c.cy + rng.NormFloat64()*c.sy
		if snap > 0 {
			// Snap to the street lattice with ~5% jitter so points sit on
			// near-collinear rows/columns like road intersections.
			x = math.Round(x/snap)*snap + rng.NormFloat64()*snap*0.05
			y = math.Round(y/snap)*snap + rng.NormFloat64()*snap*0.05
		}
		p := geom.Point{X: x, Y: y}
		if dom.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// powerLawClusters scatters k cluster centers inside box with Pareto-ish
// weights (a few huge "cities", many small ones) and sigma shrinking with
// weight rank.
func powerLawClusters(rng *rand.Rand, k int, box geom.Rect, sigmaBase float64) []cluster {
	out := make([]cluster, k)
	for i := range out {
		// weight ~ 1/(rank+1)^1.1: heavy-tailed city sizes.
		w := 1 / math.Pow(float64(i+1), 1.1)
		s := sigmaBase * (0.3 + rng.Float64())
		out[i] = cluster{
			cx:     box.MinX + rng.Float64()*box.Width(),
			cy:     box.MinY + rng.Float64()*box.Height(),
			sx:     s,
			sy:     s * (0.6 + 0.8*rng.Float64()),
			weight: w,
		}
	}
	return out
}

// Road mimics the TIGER/Line road-intersection dataset: N = 1.6M points
// in a 25 x 20 degree domain with two dense state-shaped regions
// (Washington and New Mexico) separated by a large blank area, and
// street-lattice micro-structure inside each state.
func Road(scale float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	dom := geom.MustDomain(-125, 30, -100, 50)
	n := int(1.6e6 * scale)

	// Washington-ish box in the north-west, New-Mexico-ish in the
	// south-east; town clusters inside each, snapped to street lattices.
	waBox := geom.NewRect(-124.5, 45.5, -117, 49.5)
	nmBox := geom.NewRect(-109, 31.5, -103, 37)
	var clusters []cluster
	for _, c := range powerLawClusters(rng, 60, waBox, 0.45) {
		clusters = append(clusters, c)
	}
	for _, c := range powerLawClusters(rng, 60, nmBox, 0.5) {
		c.weight *= 0.9 // NM slightly sparser than WA
		clusters = append(clusters, c)
	}
	pts := sampleClusters(rng, n, clusters, dom, 0.01)
	return &Dataset{Name: "road", Points: pts, Domain: dom, q1w: 0.5, q1h: 0.5}
}

// Checkin mimics the Gowalla check-in sample: N = 1M points in a
// 360 x 150 degree domain shaped like a world map — continent-sized
// super-regions containing power-law city clusters, with blank oceans.
func Checkin(scale float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	dom := geom.MustDomain(-180, -70, 180, 80)
	n := int(1e6 * scale)

	// Continent boxes (very rough) with overall weights reflecting how
	// Gowalla usage skewed toward North America and Europe.
	continents := []struct {
		box    geom.Rect
		weight float64
		cities int
	}{
		{geom.NewRect(-125, 25, -65, 50), 0.40, 70},  // North America
		{geom.NewRect(-10, 36, 30, 60), 0.30, 60},    // Europe
		{geom.NewRect(60, 5, 140, 45), 0.15, 50},     // Asia
		{geom.NewRect(-80, -35, -35, 5), 0.06, 25},   // South America
		{geom.NewRect(-15, -30, 45, 30), 0.04, 25},   // Africa
		{geom.NewRect(113, -40, 155, -12), 0.05, 15}, // Australia
	}
	var clusters []cluster
	for _, cont := range continents {
		cs := powerLawClusters(rng, cont.cities, cont.box, 1.2)
		var sub float64
		for _, c := range cs {
			sub += c.weight
		}
		for _, c := range cs {
			c.weight = c.weight / sub * cont.weight
			clusters = append(clusters, c)
		}
	}
	pts := sampleClusters(rng, n, clusters, dom, 0)
	return &Dataset{Name: "checkin", Points: pts, Domain: dom, q1w: 6, q1h: 3}
}

// usClusters builds the population-shaped mixture shared by Landmark and
// Storage: metro clusters over the continental-US footprint plus a broad
// rural background that is denser in the east.
func usClusters(rng *rand.Rand) []cluster {
	dom := geom.MustDomain(-130, 18, -70, 58)
	us := geom.NewRect(-124, 26, -72, 49)
	clusters := powerLawClusters(rng, 90, us, 0.8)
	// Rural background: broad overlapping blobs; eastern half denser.
	for i := 0; i < 25; i++ {
		cx := us.MinX + rng.Float64()*us.Width()
		cy := us.MinY + rng.Float64()*us.Height()
		w := 0.05
		if cx > -100 { // east of the 100th meridian
			w = 0.12
		}
		clusters = append(clusters, cluster{cx: cx, cy: cy, sx: 4, sy: 3, weight: w})
	}
	_ = dom
	return clusters
}

// Landmark mimics the Census TIGER landmark dataset: N = 0.9M points in a
// 60 x 40 degree domain with density matching the US population
// distribution.
func Landmark(scale float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	dom := geom.MustDomain(-130, 18, -70, 58)
	n := int(0.9e6 * scale)
	pts := sampleClusters(rng, n, usClusters(rng), dom, 0)
	return &Dataset{Name: "landmark", Points: pts, Domain: dom, q1w: 1.25, q1h: 0.625}
}

// Storage mimics the infochimps storage-facility dataset: the same
// spatial shape as Landmark but only N = 9,200 points, testing the
// guidelines on a small dataset (Table II's last row; N chosen so the
// suggested grid sizes 10 and 30 match the paper's table).
func Storage(scale float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	dom := geom.MustDomain(-130, 18, -70, 58)
	n := int(9200 * scale)
	pts := sampleClusters(rng, n, usClusters(rng), dom, 0)
	return &Dataset{Name: "storage", Points: pts, Domain: dom, q1w: 1.25, q1h: 0.625}
}
