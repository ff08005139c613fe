package wavelet

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Serialization of Privlet synopses. The wavelet transform is a build-
// time device: the released synopsis is just the reconstructed noisy
// m x m grid, so both encodings persist its prefix-sum table — the
// in-memory query structure — for bit-identical round trips (the AG
// copy-only decode pattern). The padded transform size is derived from
// m on load, not stored.
//
// Binary layout (after the codec container header; little endian):
//
//	domain (4 f64) | epsilon (f64) | grid size m (u32) |
//	prefix sums (length-prefixed f64 section, (m+1)^2 row-major)

const (
	// FormatPrivlet tags serialized Privlet synopses.
	FormatPrivlet = "dpgrid/privlet"
	// serializeVersion is bumped on breaking format changes.
	serializeVersion = 1
)

func init() {
	codec.Register(codec.Registration{
		Kind:       codec.KindPrivlet,
		Name:       "privlet",
		JSONFormat: FormatPrivlet,
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParsePrivletBinary(data)
		},
		DecodeJSON: func(data []byte) (codec.Synopsis, error) {
			return ParsePrivlet(data)
		},
		Tile: true,
	})
}

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

// privletFile is the on-disk JSON form.
type privletFile struct {
	core.Envelope
	Domain   [4]float64 `json:"domain"` // minX, minY, maxX, maxY
	Epsilon  float64    `json:"epsilon"`
	GridSize int        `json:"grid_size"`
	Sums     []float64  `json:"sums"` // (m+1)^2 row-major prefix sums
}

// WriteTo serializes the synopsis as JSON.
func (w *Privlet) WriteTo(dst io.Writer) (int64, error) {
	f := privletFile{
		Envelope: core.Envelope{Format: FormatPrivlet, Version: serializeVersion},
		Domain:   [4]float64{w.dom.MinX, w.dom.MinY, w.dom.MaxX, w.dom.MaxY},
		Epsilon:  w.eps,
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
	if m < 1 || uint64(m)*uint64(m) > grid.MaxCells {
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
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return nil, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	if kind != codec.KindPrivlet {
		return nil, fmt.Errorf("wavelet: container kind %v is not %v", kind, codec.KindPrivlet)
	}
	dom, err := d.Domain()
	if err != nil {
		return nil, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	eps := d.F64()
	m := d.Int32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("wavelet: invalid epsilon %g", eps)
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

// ParsePrivlet deserializes a JSON Privlet synopsis, validating all
// structural invariants.
func ParsePrivlet(data []byte) (*Privlet, error) {
	var f privletFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	if f.Format != FormatPrivlet {
		return nil, fmt.Errorf("wavelet: format %q is not %q", f.Format, FormatPrivlet)
	}
	if f.Version != serializeVersion {
		return nil, fmt.Errorf("wavelet: unsupported version %d (have %d)", f.Version, serializeVersion)
	}
	dom, err := geom.NewDomain(f.Domain[0], f.Domain[1], f.Domain[2], f.Domain[3])
	if err != nil {
		return nil, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	if !(f.Epsilon > 0) {
		return nil, fmt.Errorf("wavelet: invalid epsilon %g", f.Epsilon)
	}
	if err := checkGridSize(f.GridSize); err != nil {
		return nil, err
	}
	prefix, err := grid.PrefixFromSums(dom, f.GridSize, f.GridSize, f.Sums)
	if err != nil {
		return nil, fmt.Errorf("wavelet: %w", err)
	}
	return &Privlet{
		dom:    dom,
		eps:    f.Epsilon,
		m:      f.GridSize,
		padded: nextPow2(f.GridSize),
		prefix: prefix,
	}, nil
}
