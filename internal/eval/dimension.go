package eval

import (
	"fmt"
	"io"
	"math"

	//lint:ignore DPL001 the dimension study's synthetic clusters were generated with seeded math/rand before noise.Source grew a NormFloat64; converting would change every measured row
	"math/rand"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/gridnd"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pointindex"
)

// HierarchyGainRow is one dimension's entry of the measured version of
// section IV-C: the error of a flat DP grid vs. a hierarchical one with
// matched leaf count and fanout.
type HierarchyGainRow struct {
	Dim     int
	Leaves  int
	Fanout  int
	Depth   int
	FlatErr float64 // mean absolute range-query error
	HierErr float64
	Gain    float64 // FlatErr / HierErr; > 1 means the hierarchy helps
}

// HierarchyGainByDimension measures how much a constrained-inference
// hierarchy improves over a flat grid in 1, 2 and 3 dimensions under a
// matched configuration: 262,144 leaf cells, fanout-64 hierarchy, depth 4
// (1D: 262144 bins grouped by 64; 2D: 512x512 grouped 8x8; 3D: 64^3
// grouped 4x4x4), identical point counts and workload sizes. The paper
// predicts (section IV-C) that the gain is large in 1D, small in 2D, and
// gone or negative in 3D, because the border region a query must answer
// at leaf granularity grows with dimension.
func HierarchyGainByDimension(eps float64, o ExpOptions) ([]HierarchyGainRow, error) {
	o = o.normalized()
	if !(eps > 0) {
		return nil, fmt.Errorf("eval: eps must be positive, got %g", eps)
	}
	n := int(200000 * math.Min(o.Scale*10, 1))
	if n < 5000 {
		n = 5000
	}
	const trials = 3
	queries := o.Queries

	var rows []HierarchyGainRow

	r1, err := gain1D(eps, n, trials, queries, o.Seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r1)

	r2, err := gain2D(eps, n, trials, queries, o)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r2)

	r3, err := gain3D(eps, n, trials, queries, o.Seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r3)

	r4, err := gain4D(eps, n, trials, queries, o.Seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r4)
	return rows, nil
}

// gain4D: 16^4 leaves, 2x2x2x2 grouping (fanout 16), depth 4 — one
// dimension beyond the paper's discussion. The finer fanout *favors* the
// hierarchy relative to the other rows, so a collapsed gain here is a
// conservative confirmation of the prediction.
func gain4D(eps float64, n, trials, queries int, seed int64) (HierarchyGainRow, error) {
	rng := rand.New(rand.NewSource(seed + 401))
	dom, err := gridnd.NewDomain([]float64{0, 0, 0, 0}, []float64{100, 100, 100, 100})
	if err != nil {
		return HierarchyGainRow{}, err
	}
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		p := make([]float64, 4)
		if rng.Intn(4) == 0 {
			for k := range p {
				p[k] = rng.Float64() * 100
			}
		} else {
			centers := [4]float64{30, 60, 40, 55}
			sigmas := [4]float64{8, 10, 12, 9}
			for k := range p {
				p[k] = centers[k] + rng.NormFloat64()*sigmas[k]
			}
		}
		if dom.Contains(p) {
			pts = append(pts, p)
		}
	}
	truth, err := gridnd.BuildFlat(pts, dom, 16, 1, noise.Zero)
	if err != nil {
		return HierarchyGainRow{}, err
	}
	var flatErr, hierErr float64
	count := 0
	for trial := 0; trial < trials; trial++ {
		flat, err := gridnd.BuildFlat(pts, dom, 16, eps, noise.NewSource(seed+6000+int64(trial)))
		if err != nil {
			return HierarchyGainRow{}, err
		}
		hier, err := gridnd.BuildHierarchical(pts, dom, 16, 2, 4, eps, noise.NewSource(seed+7000+int64(trial)))
		if err != nil {
			return HierarchyGainRow{}, err
		}
		qrng := rand.New(rand.NewSource(seed + 80))
		for q := 0; q < queries; q++ {
			lo := make([]float64, 4)
			hi := make([]float64, 4)
			for k := 0; k < 4; k++ {
				w := (0.1 + qrng.Float64()*0.5) * 100
				lo[k] = qrng.Float64() * (100 - w)
				hi[k] = lo[k] + w
			}
			box := gridnd.Box{Lo: lo, Hi: hi}
			want := truth.Query(box)
			flatErr += math.Abs(flat.Query(box) - want)
			hierErr += math.Abs(hier.Query(box) - want)
			count++
		}
	}
	return gainRow(4, 16*16*16*16, 16, 4, flatErr/float64(count), hierErr/float64(count)), nil
}

// gain1D: 262144 bins, grouping 64, depth 4 (262144 = 64^3), on
// gridnd at d = 1.
func gain1D(eps float64, n, trials, queries int, seed int64) (HierarchyGainRow, error) {
	rng := rand.New(rand.NewSource(seed + 101))
	dom, err := gridnd.NewDomain([]float64{0}, []float64{100})
	if err != nil {
		return HierarchyGainRow{}, err
	}
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		var x float64
		switch rng.Intn(4) {
		case 0:
			x = rng.Float64() * 100
		case 1:
			x = 25 + rng.NormFloat64()*2
		default:
			x = 70 + rng.NormFloat64()*6
		}
		if x >= 0 && x <= 100 {
			pts = append(pts, []float64{x})
		}
	}
	const bins = 262144
	truth, err := gridnd.BuildFlat(pts, dom, bins, 1, noise.Zero)
	if err != nil {
		return HierarchyGainRow{}, err
	}
	var flatErr, hierErr float64
	count := 0
	for trial := 0; trial < trials; trial++ {
		flat, err := gridnd.BuildFlat(pts, dom, bins, eps, noise.NewSource(seed+int64(trial)))
		if err != nil {
			return HierarchyGainRow{}, err
		}
		hier, err := gridnd.BuildHierarchical(pts, dom, bins, 64, 4, eps, noise.NewSource(seed+1000+int64(trial)))
		if err != nil {
			return HierarchyGainRow{}, err
		}
		qrng := rand.New(rand.NewSource(seed + 77))
		for q := 0; q < queries; q++ {
			w := (0.1 + qrng.Float64()*0.5) * 100
			a := qrng.Float64() * (100 - w)
			box := gridnd.Box{Lo: []float64{a}, Hi: []float64{a + w}}
			want := truth.Query(box)
			flatErr += math.Abs(flat.Query(box) - want)
			hierErr += math.Abs(hier.Query(box) - want)
			count++
		}
	}
	return gainRow(1, bins, 64, 4, flatErr/float64(count), hierErr/float64(count)), nil
}

// gain2D: 512x512 leaves, 8x8 grouping (fanout 64), depth 4, on the
// checkin stand-in's spatial distribution.
func gain2D(eps float64, n, trials, queries int, o ExpOptions) (HierarchyGainRow, error) {
	d, err := o.dataset("checkin")
	if err != nil {
		return HierarchyGainRow{}, err
	}
	pts := d.Points
	if len(pts) > n {
		pts = pts[:n]
	}
	idx, err := pointindex.New(d.Domain, pts)
	if err != nil {
		return HierarchyGainRow{}, err
	}
	// Workload: rectangles with 10-60% extent per axis.
	qrng := rand.New(rand.NewSource(o.Seed + 78))
	rects := make([]geom.Rect, queries)
	truths := make([]float64, queries)
	for i := range rects {
		wx := (0.1 + qrng.Float64()*0.5) * d.Domain.Width()
		wy := (0.1 + qrng.Float64()*0.5) * d.Domain.Height()
		x0 := d.Domain.MinX + qrng.Float64()*(d.Domain.Width()-wx)
		y0 := d.Domain.MinY + qrng.Float64()*(d.Domain.Height()-wy)
		rects[i] = geom.NewRect(x0, y0, x0+wx, y0+wy)
		truths[i] = float64(idx.Count(rects[i]))
	}
	var flatErr, hierErr float64
	count := 0
	for trial := 0; trial < trials; trial++ {
		flat, err := UG(512).Build(pts, d.Domain, eps, noise.NewSource(o.Seed+2000+int64(trial)))
		if err != nil {
			return HierarchyGainRow{}, err
		}
		hier, err := H(8, 4, 512).Build(pts, d.Domain, eps, noise.NewSource(o.Seed+3000+int64(trial)))
		if err != nil {
			return HierarchyGainRow{}, err
		}
		for i, r := range rects {
			flatErr += math.Abs(flat.Query(r) - truths[i])
			hierErr += math.Abs(hier.Query(r) - truths[i])
			count++
		}
	}
	return gainRow(2, 512*512, 64, 4, flatErr/float64(count), hierErr/float64(count)), nil
}

// gain3D: 64^3 leaves, 4x4x4 grouping (fanout 64), depth 4.
func gain3D(eps float64, n, trials, queries int, seed int64) (HierarchyGainRow, error) {
	rng := rand.New(rand.NewSource(seed + 301))
	dom, err := gridnd.NewDomain([]float64{0, 0, 0}, []float64{100, 100, 100})
	if err != nil {
		return HierarchyGainRow{}, err
	}
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		var p []float64
		if rng.Intn(4) == 0 {
			p = []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		} else {
			p = []float64{
				30 + rng.NormFloat64()*8,
				60 + rng.NormFloat64()*10,
				40 + rng.NormFloat64()*12,
			}
		}
		if dom.Contains(p) {
			pts = append(pts, p)
		}
	}
	// Exact truth grid at leaf granularity (zero-noise build).
	truth, err := gridnd.BuildFlat(pts, dom, 64, 1, noise.Zero)
	if err != nil {
		return HierarchyGainRow{}, err
	}
	var flatErr, hierErr float64
	count := 0
	for trial := 0; trial < trials; trial++ {
		flat, err := gridnd.BuildFlat(pts, dom, 64, eps, noise.NewSource(seed+4000+int64(trial)))
		if err != nil {
			return HierarchyGainRow{}, err
		}
		hier, err := gridnd.BuildHierarchical(pts, dom, 64, 4, 4, eps, noise.NewSource(seed+5000+int64(trial)))
		if err != nil {
			return HierarchyGainRow{}, err
		}
		qrng := rand.New(rand.NewSource(seed + 79))
		for q := 0; q < queries; q++ {
			ext := func() float64 { return (0.1 + qrng.Float64()*0.5) * 100 }
			wx, wy, wz := ext(), ext(), ext()
			x0 := qrng.Float64() * (100 - wx)
			y0 := qrng.Float64() * (100 - wy)
			z0 := qrng.Float64() * (100 - wz)
			qb := gridnd.Box{Lo: []float64{x0, y0, z0}, Hi: []float64{x0 + wx, y0 + wy, z0 + wz}}
			want := truth.Query(qb)
			flatErr += math.Abs(flat.Query(qb) - want)
			hierErr += math.Abs(hier.Query(qb) - want)
			count++
		}
	}
	return gainRow(3, 64*64*64, 64, 4, flatErr/float64(count), hierErr/float64(count)), nil
}

func gainRow(dim, leaves, fanout, depth int, flatErr, hierErr float64) HierarchyGainRow {
	r := HierarchyGainRow{
		Dim: dim, Leaves: leaves, Fanout: fanout, Depth: depth,
		FlatErr: flatErr, HierErr: hierErr,
	}
	if hierErr > 0 {
		r.Gain = flatErr / hierErr
	}
	return r
}

// WriteHierarchyGain renders the measured dimensionality rows.
func WriteHierarchyGain(w io.Writer, rows []HierarchyGainRow, eps float64) {
	fmt.Fprintf(w, "== Measured hierarchy gain by dimension (eps=%g) ==\n", eps)
	fmt.Fprintf(w, "%4s %9s %7s %6s %12s %12s %8s\n", "dim", "leaves", "fanout", "depth", "flat-err", "hier-err", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %9d %7d %6d %12.1f %12.1f %7.2fx\n",
			r.Dim, r.Leaves, r.Fanout, r.Depth, r.FlatErr, r.HierErr, r.Gain)
	}
	fmt.Fprintln(w, "(paper, section IV-C: gains shrink as dimension grows; 1D >> 2D > 3D ~ 1)")
}
