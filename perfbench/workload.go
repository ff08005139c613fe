package main

import (
	"fmt"
	"math"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// Every input derives from the --seed flag except the point sets and
// the release's noise. The road and checkin datasets stand in for fixed
// real-world datasets, so they come from one pinned generator seed and
// are cached as CSV between runs. The release noise is pinned too: every
// run of a workload then serves the same release, its SHA-256 is a fixed
// reference that a change to the released bits moves, and
// rel_error_median varies only with the evaluation rects, not with the
// luck of one noise draw. The seed picks the request streams.
const (
	datasetSeed      = 1
	releaseNoiseSeed = 1 // dpgrid -seed; 0 would ask for a random one
	releaseEps       = 1.0
)

// streamKind selects how a workload draws the rectangles of a request.
type streamKind int

const (
	// uniformStream draws each rect from one of the six Table II size
	// classes (chosen uniformly) placed uniformly inside the domain, so
	// no rect repeats and every one misses the answer cache.
	uniformStream streamKind = iota
	// hotStream draws hotShare of the rects from a fixed set of hotRects
	// uniform rects and the rest fresh, so the answer cache hits about
	// hotShare of the time.
	hotStream
	// straddleStream draws size-class rects that cross the vertical
	// midline of the domain, where a two-column tile split puts the
	// boundary between backends, so every rect fans out to both.
	straddleStream
)

const (
	hotRects = 16
	hotShare = 0.8
)

// workload is one traffic mix over one release. Phase lengths are shares
// of --seconds, so a longer run measures proportionally more work.
type workload struct {
	name    string
	dataset string // datasets generator name
	shards  string // "" for a monolithic AG release, else the KxL mosaic
	mmap    bool   // serve with dpserve -mmap
	cluster bool   // serve through a dpserve -cluster router over two backends

	stream streamKind
	rects  int // rectangles per request

	latencyShare float64 // share of the run in the one-caller latency phase
	coldStarts   int     // repeated dpserve cold starts for setup_s
}

var workloads = []*workload{
	{
		name: "serve-hot", dataset: "road",
		stream: hotStream, rects: 64,
		latencyShare: 0.75, coldStarts: 31,
	},
	{
		name: "serve-batch-cold", dataset: "checkin", shards: "4x4", mmap: true,
		stream: uniformStream, rects: 64,
		latencyShare: 0.75, coldStarts: 31,
	},
	{
		name: "cluster-2node", dataset: "road", shards: "4x4", cluster: true,
		stream: straddleStream, rects: 4,
		latencyShare: 0.75, coldStarts: 21,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Sub-stream indices of the run seed, one per independent input, so
// adding draws to one input never shifts another.
const (
	forkEval = iota + 1
	forkHot
	forkWarmup
	forkLatency
	forkTraced
)

// seedSource returns the reproducible sub-stream i of the run seed.
func seedSource(seed int64, i uint64) noise.Source {
	return noise.NewSource(seed).(noise.Forkable).Fork(i)
}

// classRect draws a rect of a uniformly chosen Table II size class
// placed uniformly inside the dataset's domain.
func classRect(d *datasets.Dataset, src noise.Source) dpgrid.Rect {
	w, h := d.QuerySize(1 + int(src.Uniform()*6))
	dom := d.Domain
	x0 := dom.MinX + src.Uniform()*(dom.Width()-w)
	y0 := dom.MinY + src.Uniform()*(dom.Height()-h)
	return dpgrid.Rect{MinX: x0, MinY: y0, MaxX: x0 + w, MaxY: y0 + h}
}

// straddleRect draws a size-class rect that crosses the domain's
// vertical midline by at least a tenth of its width on each side.
func straddleRect(d *datasets.Dataset, src noise.Source) dpgrid.Rect {
	w, h := d.QuerySize(1 + int(src.Uniform()*6))
	dom := d.Domain
	mid := (dom.MinX + dom.MaxX) / 2
	x0 := mid - w*(0.1+0.8*src.Uniform())
	y0 := dom.MinY + src.Uniform()*(dom.Height()-h)
	return dpgrid.Rect{MinX: x0, MinY: y0, MaxX: x0 + w, MaxY: y0 + h}
}

// rectSource draws a workload's request rectangles.
type rectSource struct {
	w   *workload
	d   *datasets.Dataset
	hot []dpgrid.Rect
}

func newRectSource(w *workload, d *datasets.Dataset, seed int64) *rectSource {
	rs := &rectSource{w: w, d: d}
	if w.stream == hotStream {
		src := seedSource(seed, forkHot)
		rs.hot = make([]dpgrid.Rect, hotRects)
		for i := range rs.hot {
			rs.hot[i] = classRect(d, src)
		}
	}
	return rs
}

func (rs *rectSource) next(src noise.Source) dpgrid.Rect {
	switch rs.w.stream {
	case hotStream:
		if src.Uniform() < hotShare {
			return rs.hot[int(src.Uniform()*hotRects)]
		}
		return classRect(rs.d, src)
	case straddleStream:
		return straddleRect(rs.d, src)
	default:
		return classRect(rs.d, src)
	}
}

// requests draws n requests of the workload's rects from src.
func (rs *rectSource) requests(src noise.Source, n int) [][]dpgrid.Rect {
	out := make([][]dpgrid.Rect, n)
	for i := range out {
		out[i] = make([]dpgrid.Rect, rs.w.rects)
		for j := range out[i] {
			out[i][j] = rs.next(src)
		}
	}
	return out
}

// distinctRequests is how many distinct requests a closed loop cycles
// through: enough that the fresh rects among them number four times
// dpserve's default answer cache of 4096 entries, so a fresh rect is
// long evicted when the loop comes round to it again and the cache
// hits only on the hot rects.
func (w *workload) distinctRequests() int {
	const fresh = 4 * 4096
	share := 1.0
	if w.stream == hotStream {
		share = 1 - hotShare
	}
	return max(256, int(math.Ceil(fresh/share/float64(w.rects))))
}

// evalRects is the fixed seeded evaluation set of rel_error_median:
// perClass uniform rects from each of the six Table II size classes.
func evalRects(d *datasets.Dataset, seed int64, perClass int) []dpgrid.Rect {
	src := seedSource(seed, forkEval)
	dom := d.Domain
	out := make([]dpgrid.Rect, 0, 6*perClass)
	for class := 1; class <= 6; class++ {
		w, h := d.QuerySize(class)
		for i := 0; i < perClass; i++ {
			x0 := dom.MinX + src.Uniform()*(dom.Width()-w)
			y0 := dom.MinY + src.Uniform()*(dom.Height()-h)
			out = append(out, dpgrid.Rect{MinX: x0, MinY: y0, MaxX: x0 + w, MaxY: y0 + h})
		}
	}
	return out
}
