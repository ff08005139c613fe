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
	// serializeVersion is bumped on breaking format changes.
	serializeVersion = 1

	// minNodeBytes is the smallest a serialized node can be (a leaf:
	// rect + count + variance + zero child count) — the divisor that
	// bounds the node-count prefix against the bytes actually present.
	minNodeBytes = 4*8 + 8 + 8 + 4
)

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
		Head:      codec.NewHead(codec.KindKDTree, serializeVersion, t.dom, t.eps),
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

// ParseTreeBinary deserializes a kd-tree dpgridv2 container, validating
// every structural invariant BuildTree guarantees. Its domain and
// epsilon are checked as they are read (codec.OpenHead); see the
// package-level serialization comment for why child-index ordering plus
// reference counting is sufficient to reject malformed topologies.
func ParseTreeBinary(data []byte) (*Tree, error) {
	d, dom, eps, err := codec.OpenHead("kdtree", data, codec.KindKDTree)
	if err != nil {
		return nil, err
	}
	method := Method(d.U16())
	ci := d.U16()
	depth := d.Int32()
	storedLeaves := d.Int32()
	n := d.Len(minNodeBytes)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("kdtree: parse synopsis: %w", err)
	}
	if ci > 1 {
		return nil, fmt.Errorf("kdtree: invalid used-CI flag %d", ci)
	}
	nodes := make([]treeNode, n)
	for i := range nodes {
		node := &nodes[i]
		node.rect = geom.Rect{MinX: d.F64(), MinY: d.F64(), MaxX: d.F64(), MaxY: d.F64()}
		node.count = d.F64()
		node.variance = d.F64()
		nc := d.Int32()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("kdtree: parse synopsis: %w", err)
		}
		if nc > d.Remaining()/4 {
			return nil, fmt.Errorf("kdtree: node %d claims %d children with %d bytes left", i, nc, d.Remaining())
		}
		if nc > 0 {
			node.children = make([]int, nc)
			for j := range node.children {
				node.children[j] = d.Int32()
			}
		}
	}
	estimates := d.F64s(n)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("kdtree: parse synopsis: %w", err)
	}

	if method != Standard && method != Hybrid {
		return nil, fmt.Errorf("kdtree: unknown method %d", int(method))
	}
	if depth < 1 || depth > MaxDepth {
		return nil, fmt.Errorf("kdtree: depth %d outside [1, %d]", depth, MaxDepth)
	}
	if n < 1 {
		return nil, fmt.Errorf("kdtree: no nodes")
	}
	if len(estimates) != n {
		return nil, fmt.Errorf("kdtree: %d estimates for %d nodes", len(estimates), n)
	}
	if nodes[0].rect != dom.Rect {
		return nil, fmt.Errorf("kdtree: root rect %v does not cover the domain %v", nodes[0].rect, dom.Rect)
	}
	refs := make([]int, n)
	leaves := 0
	for i := range nodes {
		node := &nodes[i]
		if !node.rect.IsValid() {
			return nil, fmt.Errorf("kdtree: node %d has invalid rect %v", i, node.rect)
		}
		if math.IsNaN(node.count) || math.IsInf(node.count, 0) {
			return nil, fmt.Errorf("kdtree: node %d has non-finite count %g", i, node.count)
		}
		if math.IsNaN(node.variance) || math.IsInf(node.variance, 0) || node.variance < 0 {
			return nil, fmt.Errorf("kdtree: node %d has invalid variance %g", i, node.variance)
		}
		for _, c := range node.children {
			if c <= i || c >= n {
				return nil, fmt.Errorf("kdtree: node %d has out-of-order child index %d", i, c)
			}
			refs[c]++
		}
		if len(node.children) == 0 {
			leaves++
		}
	}
	for i := 1; i < n; i++ {
		if refs[i] != 1 {
			return nil, fmt.Errorf("kdtree: node %d referenced %d times, want exactly once", i, refs[i])
		}
	}
	for i, v := range estimates {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("kdtree: non-finite estimate %g at node %d", v, i)
		}
	}
	if storedLeaves != leaves {
		return nil, fmt.Errorf("kdtree: stored leaf count %d, derived %d", storedLeaves, leaves)
	}
	return &Tree{
		dom:       dom,
		eps:       eps,
		method:    method,
		depth:     depth,
		nodes:     nodes,
		estimates: estimates,
		leaves:    leaves,
		usedCI:    ci == 1,
	}, nil
}
