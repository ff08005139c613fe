package eval

import (
	"fmt"
	"io"
	"math"

	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/kdtree"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// Ablation experiments for the implementation's design choices. These
// go beyond the paper's figures: they isolate individual ingredients
// (the Guideline 1 constant, AG's constrained inference, KD-hybrid's
// optimizations) to show each one's contribution.

// AblationCRow records UG accuracy when the Guideline 1 constant c is
// swept; the paper asserts c = 10 "works well" — the sweep exhibits the
// bowl around it.
type AblationCRow struct {
	C        float64
	GridSize int
	MeanRE   float64
}

// AblationC sweeps the Guideline 1 constant on one dataset/epsilon.
func AblationC(name string, eps float64, o ExpOptions) ([]AblationCRow, error) {
	o = o.normalized()
	d, err := o.dataset(name)
	if err != nil {
		return nil, err
	}
	cs := []float64{1.25, 2.5, 5, 10, 20, 40, 80}
	var methods []MethodSpec
	sizes := make([]int, len(cs))
	for i, c := range cs {
		m := core.SuggestedUGSize(float64(d.N()), eps, c)
		sizes[i] = m
		methods = append(methods, UG(m))
	}
	res, err := Run(o.config(d, eps), methods)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationCRow, len(cs))
	for i := range cs {
		rows[i] = AblationCRow{C: cs[i], GridSize: sizes[i], MeanRE: res.Methods[i].RelAll.Mean}
	}
	return rows, nil
}

// WriteAblationC renders the Guideline 1 constant sweep.
func WriteAblationC(w io.Writer, name string, eps float64, rows []AblationCRow) {
	fmt.Fprintf(w, "== Ablation: Guideline 1 constant c (dataset=%s eps=%g) ==\n", name, eps)
	fmt.Fprintf(w, "%8s %10s %10s\n", "c", "grid", "meanRE")
	best := math.Inf(1)
	bestC := 0.0
	for _, r := range rows {
		if r.MeanRE < best {
			best, bestC = r.MeanRE, r.C
		}
	}
	for _, r := range rows {
		marker := ""
		if r.C == bestC {
			marker = "  <- best"
		}
		fmt.Fprintf(w, "%8.2f %10d %10.4f%s\n", r.C, r.GridSize, r.MeanRE, marker)
	}
	fmt.Fprintln(w, "(the paper's default c = 10 should sit in or near the bowl's bottom)")
}

// AGNoCI is AG with constrained inference disabled (ablation).
func AGNoCI() MethodSpec {
	return MethodSpec{
		Name: "A-sugg-noCI",
		Build: func(pts []geom.Point, dom geom.Domain, eps float64, src noise.Source) (Synopsis, error) {
			return core.BuildAdaptiveGrid(pts, dom, eps, core.AGOptions{DisableInference: true}, src)
		},
	}
}

// KhyVariant is KD-hybrid with constrained inference and/or geometric
// budget allocation toggled (ablation of [3]'s optimizations).
func KhyVariant(ci, geo bool) MethodSpec {
	name := "Khy"
	opts := kdtree.Options{Method: kdtree.Hybrid}
	if !ci {
		name += "-noCI"
		opts.ConstrainedInference = -1
	}
	if !geo {
		name += "-uniform"
		opts.GeometricAlloc = -1
	}
	return MethodSpec{
		Name: name,
		Build: func(pts []geom.Point, dom geom.Domain, eps float64, src noise.Source) (Synopsis, error) {
			return kdtree.BuildTree(pts, dom, eps, opts, src)
		},
	}
}

// UGAspect is UG with aspect-ratio-aware cell dimensions (square cells
// in data units), an extension beyond the paper.
func UGAspect() MethodSpec {
	return MethodSpec{
		Name: "U-aspect",
		Build: func(pts []geom.Point, dom geom.Domain, eps float64, src noise.Source) (Synopsis, error) {
			return core.BuildUniformGrid(pts, dom, eps, core.UGOptions{AspectAware: true}, src)
		},
	}
}

// AblationAspect compares the paper's square m x m UG against the
// aspect-aware variant on one dataset (interesting on wide domains like
// checkin's 360 x 150, a no-op on near-square ones like road's 25 x 20).
func AblationAspect(name string, eps float64, o ExpOptions) (*Result, error) {
	o = o.normalized()
	d, err := o.dataset(name)
	if err != nil {
		return nil, err
	}
	return Run(o.config(d, eps), []MethodSpec{UGSuggested(), UGAspect(), AGSuggested()})
}

// Quadtree is a pure quadtree (midpoint splits all the way down, no
// median budget) with CI — the simplest recursive-partitioning baseline
// of [3], realized as KD-hybrid with every level a quad level.
func Quadtree() MethodSpec {
	return MethodSpec{
		Name: "Quad",
		Build: func(pts []geom.Point, dom geom.Domain, eps float64, src noise.Source) (Synopsis, error) {
			return kdtree.BuildTree(pts, dom, eps, kdtree.Options{
				Method:           kdtree.Hybrid,
				QuadLevels:       kdtree.MaxDepth,
				MedianBudgetFrac: -1,
			}, src)
		},
	}
}

// AblationComponents compares full methods against versions with one
// ingredient removed: AG with/without CI, KD-hybrid with/without CI and
// geometric allocation, plus the pure quadtree.
func AblationComponents(name string, eps float64, o ExpOptions) (*Result, error) {
	o = o.normalized()
	d, err := o.dataset(name)
	if err != nil {
		return nil, err
	}
	methods := []MethodSpec{
		AGSuggested(),
		AGNoCI(),
		Khy(),
		KhyVariant(false, true),
		KhyVariant(true, false),
		KhyVariant(false, false),
		Quadtree(),
	}
	return Run(o.config(d, eps), methods)
}
