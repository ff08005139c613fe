package kdtree

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
)

// Serialization of kd-tree synopses. Unlike the grid-backed kinds, a
// tree's query structure is its node table, so that is what the
// container and the JSON dump persist: per-node rect, noisy count,
// variance, and child indices, plus the post-CI estimate vector.
// Decoding copies the table verbatim — no rebuilding, no re-noising —
// so round trips are bit-identical.
//
// Structural safety rests on the builder's append-order invariant:
// children are appended after their parent, so every child index is
// strictly greater than its parent's. The decoder enforces that, plus
// every-node-referenced-exactly-once, which together rule out cycles,
// sharing, and orphans in untrusted input.
//
// Binary layout (after the codec container header; little endian):
//
//	domain (4 f64) | epsilon (f64) | method (u16) | used CI (u16) |
//	depth (u32) | leaves (u32) | node count (u64) |
//	per node: rect (4 f64) | count (f64) | variance (f64) |
//	          child count (u32) | child indices (u32 each) |
//	estimates (length-prefixed f64 section, one per node)

const (
	// FormatKDTree tags serialized kd-tree synopses.
	FormatKDTree = "dpgrid/kdtree"
	// serializeVersion is bumped on breaking format changes.
	serializeVersion = 1

	// minNodeBytes is the smallest a serialized node can be (a leaf:
	// rect + count + variance + zero child count) — the divisor that
	// bounds the node-count prefix against the bytes actually present.
	minNodeBytes = 4*8 + 8 + 8 + 4
)

func init() {
	codec.Register(codec.Registration{
		Kind:       codec.KindKDTree,
		Name:       "kd-tree",
		JSONFormat: FormatKDTree,
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParseTreeBinary(data)
		},
		Tile: true,
	})
}

// ContainerKind reports the synopsis's container kind.
func (t *Tree) ContainerKind() codec.Kind { return codec.KindKDTree }

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (t *Tree) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindKDTree)
	e.Domain(t.dom)
	e.F64(t.eps)
	e.U16(uint16(t.method))
	var ci uint16
	if t.usedCI {
		ci = 1
	}
	e.U16(ci)
	e.U32(uint32(t.depth))
	e.U32(uint32(t.leaves))
	e.U64(uint64(len(t.nodes)))
	for _, n := range t.nodes {
		e.F64(n.rect.MinX)
		e.F64(n.rect.MinY)
		e.F64(n.rect.MaxX)
		e.F64(n.rect.MaxY)
		e.F64(n.count)
		e.F64(n.variance)
		e.U32(uint32(len(n.children)))
		for _, c := range n.children {
			e.U32(uint32(c))
		}
	}
	e.F64s(t.estimates)
	return e.Bytes(), nil
}

// treeNodeFile is a node's form in the JSON dump.
type treeNodeFile struct {
	Rect     [4]float64 `json:"rect"` // minX, minY, maxX, maxY
	Count    float64    `json:"count"`
	Variance float64    `json:"variance"`
	Children []int      `json:"children,omitempty"`
}

// treeFile is the JSON dump's form.
type treeFile struct {
	codec.Head
	Method    int            `json:"method"`
	Depth     int            `json:"depth"`
	UsedCI    bool           `json:"used_ci"`
	Nodes     []treeNodeFile `json:"nodes"`
	Estimates []float64      `json:"estimates"`
}

// WriteTo serializes the synopsis as JSON.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	f := treeFile{
		Head:      codec.NewHead(FormatKDTree, serializeVersion, t.dom, t.eps),
		Method:    int(t.method),
		Depth:     t.depth,
		UsedCI:    t.usedCI,
		Nodes:     make([]treeNodeFile, len(t.nodes)),
		Estimates: t.estimates,
	}
	for i, n := range t.nodes {
		f.Nodes[i] = treeNodeFile{
			Rect:     [4]float64{n.rect.MinX, n.rect.MinY, n.rect.MaxX, n.rect.MaxY},
			Count:    n.count,
			Variance: n.variance,
			Children: n.children,
		}
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return 0, fmt.Errorf("kdtree: marshal synopsis: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// treeParts is a decoded-but-unvalidated tree. Its domain and epsilon
// are checked as they are read (codec.OpenHead); validate() is the
// single gatekeeper of the rest.
type treeParts struct {
	dom       geom.Domain
	eps       float64
	method    Method
	depth     int
	usedCI    bool
	nodes     []treeNode
	estimates []float64
	leaves    int // derived by validate()
}

// validate checks every structural invariant BuildTree guarantees and
// derives the leaf count. See the package-level serialization comment
// for why child-index ordering plus reference counting is sufficient to
// reject malformed topologies.
func (p *treeParts) validate() error {
	if p.method != Standard && p.method != Hybrid {
		return fmt.Errorf("kdtree: unknown method %d", int(p.method))
	}
	if p.depth < 1 || p.depth > MaxDepth {
		return fmt.Errorf("kdtree: depth %d outside [1, %d]", p.depth, MaxDepth)
	}
	n := len(p.nodes)
	if n < 1 {
		return fmt.Errorf("kdtree: no nodes")
	}
	if len(p.estimates) != n {
		return fmt.Errorf("kdtree: %d estimates for %d nodes", len(p.estimates), n)
	}
	if p.nodes[0].rect != p.dom.Rect {
		return fmt.Errorf("kdtree: root rect %v does not cover the domain %v", p.nodes[0].rect, p.dom.Rect)
	}
	refs := make([]int, n)
	for i := range p.nodes {
		node := &p.nodes[i]
		if !node.rect.IsValid() {
			return fmt.Errorf("kdtree: node %d has invalid rect %v", i, node.rect)
		}
		if math.IsNaN(node.count) || math.IsInf(node.count, 0) {
			return fmt.Errorf("kdtree: node %d has non-finite count %g", i, node.count)
		}
		if math.IsNaN(node.variance) || math.IsInf(node.variance, 0) || node.variance < 0 {
			return fmt.Errorf("kdtree: node %d has invalid variance %g", i, node.variance)
		}
		for _, c := range node.children {
			if c <= i || c >= n {
				return fmt.Errorf("kdtree: node %d has out-of-order child index %d", i, c)
			}
			refs[c]++
		}
		if len(node.children) == 0 {
			p.leaves++
		}
	}
	for i := 1; i < n; i++ {
		if refs[i] != 1 {
			return fmt.Errorf("kdtree: node %d referenced %d times, want exactly once", i, refs[i])
		}
	}
	for i, v := range p.estimates {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("kdtree: non-finite estimate %g at node %d", v, i)
		}
	}
	return nil
}

func (p *treeParts) build() *Tree {
	return &Tree{
		dom:       p.dom,
		eps:       p.eps,
		method:    p.method,
		depth:     p.depth,
		nodes:     p.nodes,
		estimates: p.estimates,
		leaves:    p.leaves,
		usedCI:    p.usedCI,
	}
}

// decodeTreeBinary reads a kd-tree container into treeParts and runs
// the shared validation.
func decodeTreeBinary(data []byte) (treeParts, error) {
	var p treeParts
	d, dom, eps, err := codec.OpenHead("kdtree", data, codec.KindKDTree)
	if err != nil {
		return p, err
	}
	p.dom, p.eps = dom, eps
	p.method = Method(d.U16())
	ci := d.U16()
	p.depth = d.Int32()
	storedLeaves := d.Int32()
	n := d.Len(minNodeBytes)
	if err := d.Err(); err != nil {
		return p, fmt.Errorf("kdtree: parse synopsis: %w", err)
	}
	if ci > 1 {
		return p, fmt.Errorf("kdtree: invalid used-CI flag %d", ci)
	}
	p.usedCI = ci == 1
	p.nodes = make([]treeNode, n)
	for i := range p.nodes {
		node := &p.nodes[i]
		node.rect = geom.Rect{MinX: d.F64(), MinY: d.F64(), MaxX: d.F64(), MaxY: d.F64()}
		node.count = d.F64()
		node.variance = d.F64()
		nc := d.Int32()
		if err := d.Err(); err != nil {
			return p, fmt.Errorf("kdtree: parse synopsis: %w", err)
		}
		if nc > d.Remaining()/4 {
			return p, fmt.Errorf("kdtree: node %d claims %d children with %d bytes left", i, nc, d.Remaining())
		}
		if nc > 0 {
			node.children = make([]int, nc)
			for j := range node.children {
				node.children[j] = d.Int32()
			}
		}
	}
	p.estimates = d.F64s(n)
	if err := d.Finish(); err != nil {
		return p, fmt.Errorf("kdtree: parse synopsis: %w", err)
	}
	if err := p.validate(); err != nil {
		return p, err
	}
	if storedLeaves != p.leaves {
		return p, fmt.Errorf("kdtree: stored leaf count %d, derived %d", storedLeaves, p.leaves)
	}
	return p, nil
}

// ParseTreeBinary deserializes a kd-tree dpgridv2 container, validating
// all structural invariants.
func ParseTreeBinary(data []byte) (*Tree, error) {
	p, err := decodeTreeBinary(data)
	if err != nil {
		return nil, err
	}
	return p.build(), nil
}
