package wavelet

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Serialization of Privlet synopses. The wavelet transform is a build-
// time device: the released synopsis is just the reconstructed noisy
// m x m grid, so the container and the JSON dump persist its prefix-sum
// table — the in-memory query structure — for bit-identical round trips
// (the AG copy-only decode pattern). The padded transform size is derived from
// m on load, not stored.
//
// Binary layout (after the codec container header; little endian):
//
//	domain (4 f64) | epsilon (f64) | grid size m (u32) |
//	prefix sums (length-prefixed f64 section, (m+1)^2 row-major)

// serializeVersion is bumped on breaking format changes.
const serializeVersion = 1

// ContainerKind reports the synopsis's container kind.
func (w *Privlet) ContainerKind() codec.Kind { return codec.KindPrivlet }

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (w *Privlet) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindPrivlet)
	e.Domain(w.dom)
	e.F64(w.eps)
	e.U32(uint32(w.m))
	e.F64s(w.prefix.Sums())
	return e.Bytes(), nil
}

// privletFile is the JSON dump's form.
type privletFile struct {
	codec.Head
	GridSize int       `json:"grid_size"`
	Sums     []float64 `json:"sums"` // (m+1)^2 row-major prefix sums
}

// WriteTo serializes the synopsis as JSON.
func (w *Privlet) WriteTo(dst io.Writer) (int64, error) {
	f := privletFile{
		Head:     codec.NewHead(codec.KindPrivlet, serializeVersion, w.dom, w.eps),
		GridSize: w.m,
		Sums:     w.prefix.Sums(),
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return 0, fmt.Errorf("wavelet: marshal synopsis: %w", err)
	}
	data = append(data, '\n')
	n, err := dst.Write(data)
	return int64(n), err
}

// checkGridSize validates m against the build-time bounds: positive,
// within the cell cap, and with a padded power-of-two transform size
// BuildPrivlet itself would accept.
func checkGridSize(m int) error {
	if !grid.Fits(m, m) {
		return fmt.Errorf("wavelet: invalid grid size %d", m)
	}
	if nextPow2(m) > 1<<13 {
		return fmt.Errorf("wavelet: padded grid %d too large", nextPow2(m))
	}
	return nil
}

// ParsePrivletBinary deserializes a Privlet dpgridv2 container,
// validating all structural invariants, the prefix table's finiteness
// and zero border included.
func ParsePrivletBinary(data []byte) (*Privlet, error) {
	d, dom, eps, err := codec.OpenHead("wavelet", data, codec.KindPrivlet)
	if err != nil {
		return nil, err
	}
	m := d.Int32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	if err := checkGridSize(m); err != nil {
		return nil, err
	}
	sums := d.F64s((m + 1) * (m + 1))
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	prefix, err := grid.PrefixFromSums(dom, m, m, sums)
	if err != nil {
		return nil, fmt.Errorf("wavelet: %w", err)
	}
	return &Privlet{
		dom:    dom,
		eps:    eps,
		m:      m,
		padded: nextPow2(m),
		prefix: prefix,
	}, nil
}
