package hierarchy

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/gridnd"
)

// Serialization of hierarchy synopses. The released synopsis is the
// reconciled leaf grid, so — exactly like AG cells — the container and
// the JSON dump persist the prefix-sum table, the synopsis's in-memory query
// structure: encode/decode never recompute sums, round trips are
// bit-identical, and decoding is an allocation plus a copy. The level
// structure (branching, depth) rides along so accessors and re-encodes
// reproduce the build configuration; the per-level sizes are derived,
// not stored.
//
// Binary layout (after the codec container header; little endian):
//
//	domain (4 f64) | epsilon (f64) | grid size m (u32) |
//	branching (u32) | depth (u32) |
//	prefix sums (length-prefixed f64 section, (m+1)^2 row-major)

// serializeVersion is bumped on breaking format changes.
const serializeVersion = 1

// ContainerKind reports the synopsis's container kind.
func (h *Hierarchy) ContainerKind() codec.Kind { return codec.KindHierarchy }

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (h *Hierarchy) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindHierarchy)
	e.Domain(h.dom)
	e.F64(h.eps)
	e.U32(uint32(h.opts.GridSize))
	e.U32(uint32(h.opts.Branching))
	e.U32(uint32(h.opts.Depth))
	e.F64s(h.prefix.Sums())
	return e.Bytes(), nil
}

// hierFile is the JSON dump's form.
type hierFile struct {
	codec.Head
	GridSize  int       `json:"grid_size"`
	Branching int       `json:"branching"`
	Depth     int       `json:"depth"`
	Sums      []float64 `json:"sums"` // (m+1)^2 row-major prefix sums
}

// WriteTo serializes the synopsis as JSON.
func (h *Hierarchy) WriteTo(w io.Writer) (int64, error) {
	f := hierFile{
		Head:      codec.NewHead(codec.KindHierarchy, serializeVersion, h.dom, h.eps),
		GridSize:  h.opts.GridSize,
		Branching: h.opts.Branching,
		Depth:     h.opts.Depth,
		Sums:      h.prefix.Sums(),
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return 0, fmt.Errorf("hierarchy: marshal synopsis: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// checkShape validates the level structure: a leaf size within the
// cell cap, then gridnd.LevelSizes' depth, branching and divisibility
// checks, the ones BuildHierarchy runs. It returns the derived
// per-level sizes, leaf first.
func checkShape(m, b, d int) ([]int, error) {
	if !grid.Fits(m, m) {
		return nil, fmt.Errorf("hierarchy: invalid grid size %d", m)
	}
	levels, err := gridnd.LevelSizes(m, b, d)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	return levels, nil
}

// ParseHierarchyBinary deserializes a hierarchy dpgridv2 container,
// validating all structural invariants, the prefix table's finiteness
// and zero border included.
func ParseHierarchyBinary(data []byte) (*Hierarchy, error) {
	d, dom, eps, err := codec.OpenHead("hierarchy", data, codec.KindHierarchy)
	if err != nil {
		return nil, err
	}
	m, b, depth := d.Int32(), d.Int32(), d.Int32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("hierarchy: parse synopsis: %w", err)
	}
	levels, err := checkShape(m, b, depth)
	if err != nil {
		return nil, err
	}
	sums := d.F64s((m + 1) * (m + 1))
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("hierarchy: parse synopsis: %w", err)
	}
	prefix, err := grid.PrefixFromSums(dom, m, m, sums)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	return &Hierarchy{
		dom:    dom,
		eps:    eps,
		opts:   Options{GridSize: m, Branching: b, Depth: depth},
		prefix: prefix,
		levels: levels,
	}, nil
}
