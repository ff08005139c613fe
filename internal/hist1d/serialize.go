package hist1d

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Serialization of 1D histograms. The container and the JSON dump
// persist the prefix-sum table — the in-memory query structure — for bit-identical round trips
// (the same copy-only decode pattern the 2D kinds use). Prefix sums of
// noisy bins are not monotonic (Laplace noise goes negative), so the
// structural checks are grid.SATFromSums' length, first-element-zero and
// finiteness, nothing stronger.
//
// Exact histograms (Exact, FromValues) carry epsilon zero and refuse to
// serialize: a release file is a privacy artifact, and writing raw
// counts through the same door would make them indistinguishable from
// private ones on disk.
//
// Binary layout (after the codec container header; little endian):
//
//	lo (f64) | hi (f64) | epsilon (f64) | bins (u32) |
//	prefix sums (length-prefixed f64 section, bins+1 entries)

// serializeVersion is bumped on breaking format changes.
const serializeVersion = 1

// ContainerKind reports the synopsis's container kind.
func (h *Hist) ContainerKind() codec.Kind { return codec.KindHist1D }

// checkSerializable rejects exact (epsilon-zero) histograms.
func (h *Hist) checkSerializable() error {
	if !(h.eps > 0) {
		return fmt.Errorf("hist1d: refusing to serialize a non-private histogram (epsilon %g)", h.eps)
	}
	return nil
}

// AppendBinary appends the histogram's dpgridv2 container to dst and
// returns the extended slice.
func (h *Hist) AppendBinary(dst []byte) ([]byte, error) {
	if err := h.checkSerializable(); err != nil {
		return nil, err
	}
	e := codec.NewEnc(dst, codec.KindHist1D)
	e.F64(h.lo)
	e.F64(h.hi)
	e.F64(h.eps)
	e.U32(uint32(h.Bins()))
	e.F64s(h.prefix)
	return e.Bytes(), nil
}

// histFile is the JSON dump's form.
type histFile struct {
	codec.Envelope
	Range   [2]float64 `json:"range"` // lo, hi
	Epsilon float64    `json:"epsilon"`
	Bins    int        `json:"bins"`
	Prefix  []float64  `json:"prefix"` // bins+1 prefix sums, prefix[0] == 0
}

// WriteTo serializes the histogram as JSON.
func (h *Hist) WriteTo(dst io.Writer) (int64, error) {
	if err := h.checkSerializable(); err != nil {
		return 0, err
	}
	f := histFile{
		Envelope: codec.Envelope{Format: codec.KindHist1D.JSONFormat(), Version: serializeVersion},
		Range:    [2]float64{h.lo, h.hi},
		Epsilon:  h.eps,
		Bins:     h.Bins(),
		Prefix:   h.prefix,
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return 0, fmt.Errorf("hist1d: marshal synopsis: %w", err)
	}
	data = append(data, '\n')
	n, err := dst.Write(data)
	return int64(n), err
}

// ParseHistBinary deserializes a hist1d dpgridv2 container, validating
// all structural invariants.
func ParseHistBinary(data []byte) (*Hist, error) {
	d, err := codec.Open("hist1d", data, codec.KindHist1D)
	if err != nil {
		return nil, err
	}
	lo := d.F64()
	hi := d.F64()
	eps := d.F64()
	bins := d.Int32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("hist1d: parse synopsis: %w", err)
	}
	// The table's cell cap bounds the bin count a file may demand.
	if bins < 0 || bins > grid.MaxCells {
		return nil, fmt.Errorf("hist1d: invalid bin count %d", bins)
	}
	prefix := d.F64s(bins + 1)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("hist1d: parse synopsis: %w", err)
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || !(hi > lo) {
		return nil, fmt.Errorf("hist1d: invalid range [%g, %g]", lo, hi)
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("hist1d: invalid epsilon %g", eps)
	}
	if bins < 1 {
		return nil, fmt.Errorf("hist1d: invalid bin count %d", bins)
	}
	// The prefix table gets grid.SATFromSums' length, zero-start and
	// finiteness checks.
	if _, err := grid.SATFromSums([]int{bins}, prefix); err != nil {
		return nil, fmt.Errorf("hist1d: %w", err)
	}
	return &Hist{lo: lo, hi: hi, eps: eps, prefix: prefix}, nil
}
