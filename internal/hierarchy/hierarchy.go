// Package hierarchy implements the H_{b,d} baseline of the paper's
// Figure 3: a d-level hierarchy with b x b branching built on top of an
// m x m base grid (e.g. H_{2,3} over a 360 grid uses level sizes 360, 180,
// 90). Each level receives an equal share eps/d of the privacy budget for
// its noisy counts, and constrained inference reconciles the levels;
// gridnd.Hierarchical does both at dimension 2. Queries are answered
// from the reconciled leaf grid exactly like UG — by consistency, greedy
// top-down answering and leaf summation coincide.
//
// The paper uses this baseline to show that hierarchies add little
// accuracy in two dimensions (section IV-C's border-fraction analysis).
package hierarchy

import (
	"errors"
	"fmt"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/gridnd"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// Options configures BuildHierarchy.
type Options struct {
	// GridSize is the base (leaf) grid size m. Required.
	GridSize int
	// Branching is the per-axis branching factor b; each coarser level
	// groups b x b cells. Must be >= 2.
	Branching int
	// Depth is the number of levels d including the leaf level. Must be
	// >= 1; Depth 1 degenerates to UG with grid size m.
	Depth int
}

// Hierarchy is the released synopsis: the reconciled leaf grid.
type Hierarchy struct {
	dom    geom.Domain
	eps    float64
	opts   Options
	prefix grid.Prefix
	levels []int // grid size per level, leaf first
}

// BuildHierarchy constructs an H_{b,d} synopsis of points over dom under
// eps-differential privacy.
func BuildHierarchy(points []geom.Point, dom geom.Domain, eps float64, opts Options, src noise.Source) (*Hierarchy, error) {
	if src == nil {
		return nil, errors.New("hierarchy: nil noise source")
	}
	if _, err := noise.NewBudget(eps); err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	levels, err := gridnd.LevelSizes(opts.GridSize, opts.Branching, opts.Depth)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	leaf, err := grid.FromPoints(dom, opts.GridSize, opts.GridSize, points)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	est, err := gridnd.Hierarchical(leaf.Values(), 2, opts.GridSize, opts.Branching, opts.Depth, eps, src)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	copy(leaf.Values(), est)
	return &Hierarchy{
		dom:    dom,
		eps:    eps,
		opts:   opts,
		prefix: grid.NewPrefix(leaf),
		levels: levels,
	}, nil
}

// Query estimates the number of data points in r.
func (h *Hierarchy) Query(r geom.Rect) float64 { return h.prefix.Query(r) }

// Epsilon returns the total privacy budget consumed.
func (h *Hierarchy) Epsilon() float64 { return h.eps }

// Domain returns the synopsis domain.
func (h *Hierarchy) Domain() geom.Domain { return h.dom }

// LevelSizes returns the grid size of each level, leaf level first.
func (h *Hierarchy) LevelSizes() []int {
	out := make([]int, len(h.levels))
	copy(out, h.levels)
	return out
}

// TotalEstimate returns the noisy estimate of the dataset size.
func (h *Hierarchy) TotalEstimate() float64 { return h.prefix.Total() }
