// Package hierarchy implements the H_{b,d} baseline of the paper's
// Figure 3: a d-level hierarchy with b x b branching built on top of an
// m x m base grid (e.g. H_{2,3} over a 360 grid uses level sizes 360, 180,
// 90). Each level receives an equal share eps/d of the privacy budget for
// its noisy counts, and constrained inference (package infer) reconciles
// the levels. Queries are answered from the reconciled leaf grid exactly
// like UG — by consistency, greedy top-down answering and leaf summation
// coincide.
//
// The paper uses this baseline to show that hierarchies add little
// accuracy in two dimensions (section IV-C's border-fraction analysis).
package hierarchy

import (
	"errors"
	"fmt"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/infer"
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
	prefix *grid.Prefix
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
	if opts.GridSize <= 0 {
		return nil, fmt.Errorf("hierarchy: grid size must be positive, got %d", opts.GridSize)
	}
	if opts.Depth < 1 {
		return nil, fmt.Errorf("hierarchy: depth must be >= 1, got %d", opts.Depth)
	}
	if opts.Depth > 1 && opts.Branching < 2 {
		return nil, fmt.Errorf("hierarchy: branching must be >= 2, got %d", opts.Branching)
	}

	// Level sizes, leaf first: m, m/b, m/b^2, ... Every level must divide
	// evenly (the paper's 360 base works for b in 2..6).
	levels := make([]int, opts.Depth)
	levels[0] = opts.GridSize
	for l := 1; l < opts.Depth; l++ {
		if levels[l-1]%opts.Branching != 0 {
			return nil, fmt.Errorf("hierarchy: level size %d not divisible by branching %d", levels[l-1], opts.Branching)
		}
		levels[l] = levels[l-1] / opts.Branching
		if levels[l] < 1 {
			return nil, fmt.Errorf("hierarchy: depth %d too deep for grid size %d with branching %d",
				opts.Depth, opts.GridSize, opts.Branching)
		}
	}

	// Exact histograms per level: build leaves by one data pass, aggregate
	// upward (each level requires no further data passes).
	exact := make([]*grid.Counts, opts.Depth)
	leaf, err := grid.FromPoints(dom, levels[0], levels[0], points)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	exact[0] = leaf
	for l := 1; l < opts.Depth; l++ {
		coarse, err := grid.New(dom, levels[l], levels[l])
		if err != nil {
			return nil, fmt.Errorf("hierarchy: %w", err)
		}
		fine := exact[l-1]
		fm, _ := fine.Dims()
		b := opts.Branching
		for iy := 0; iy < fm; iy++ {
			for ix := 0; ix < fm; ix++ {
				coarse.Add(ix/b, iy/b, fine.At(ix, iy))
			}
		}
		exact[l] = coarse
	}

	// Noise every level with eps/d (uniform split, as in Hay et al.).
	perLevel := eps / float64(opts.Depth)
	noisy := make([]*grid.Counts, opts.Depth)
	variance := make([]float64, opts.Depth)
	for l := 0; l < opts.Depth; l++ {
		mech, err := noise.NewMechanism(perLevel, 1, src)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: %w", err)
		}
		noisy[l] = exact[l].Clone()
		mech.PerturbAll(noisy[l].Values())
		variance[l] = mech.Variance()
	}

	// Build the inference forest: nodes are laid out level by level with
	// the leaves first, so node index = offset[level] + iy*size + ix.
	offsets := make([]int, opts.Depth)
	totalNodes := 0
	for l := 0; l < opts.Depth; l++ {
		offsets[l] = totalNodes
		totalNodes += levels[l] * levels[l]
	}
	forest := &infer.Forest{Nodes: make([]infer.Node, totalNodes)}
	for l := 0; l < opts.Depth; l++ {
		size := levels[l]
		for iy := 0; iy < size; iy++ {
			for ix := 0; ix < size; ix++ {
				idx := offsets[l] + iy*size + ix
				forest.Nodes[idx].Count = noisy[l].At(ix, iy)
				forest.Nodes[idx].Variance = variance[l]
				if l > 0 {
					b := opts.Branching
					fineSize := levels[l-1]
					children := make([]int, 0, b*b)
					for dy := 0; dy < b; dy++ {
						for dx := 0; dx < b; dx++ {
							cix, ciy := ix*b+dx, iy*b+dy
							children = append(children, offsets[l-1]+ciy*fineSize+cix)
						}
					}
					forest.Nodes[idx].Children = children
				}
			}
		}
	}
	top := levels[opts.Depth-1]
	forest.Roots = make([]int, 0, top*top)
	for i := 0; i < top*top; i++ {
		forest.Roots = append(forest.Roots, offsets[opts.Depth-1]+i)
	}

	estimates, err := forest.Infer()
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}

	final, err := grid.New(dom, levels[0], levels[0])
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	copy(final.Values(), estimates[:levels[0]*levels[0]])

	return &Hierarchy{
		dom:    dom,
		eps:    eps,
		opts:   opts,
		prefix: grid.NewPrefix(final),
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
