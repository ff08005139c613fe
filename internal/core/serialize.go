package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Serialization of released synopses. A synopsis is the publishable
// artifact of the whole pipeline (the paper's definition: "the boundaries
// of these cells and their noisy counts"), so it must survive a round
// trip to disk: the data holder builds and saves once; analysts load and
// query forever after without the raw data.
//
// The format is versioned JSON with an explicit format tag per synopsis
// kind. Loading validates structural invariants (dimensions vs. payload
// lengths, finite counts, valid domain) so a corrupted or hand-edited
// file fails loudly instead of answering garbage.

const (
	// FormatUG tags serialized UniformGrid synopses.
	FormatUG = "dpgrid/uniform-grid"
	// FormatAG tags serialized AdaptiveGrid synopses.
	FormatAG = "dpgrid/adaptive-grid"
	// serializeVersion is bumped on breaking format changes.
	serializeVersion = 1
)

// Envelope is the common header of every serialized synopsis; decode it
// first to learn which concrete type a file holds.
type Envelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type ugFile struct {
	Envelope
	Domain  [4]float64 `json:"domain"` // minX, minY, maxX, maxY
	Epsilon float64    `json:"epsilon"`
	M       int        `json:"m"`
	// MX, MY are the actual grid dimensions; 0 (older files) means M x M.
	MX     int       `json:"mx,omitempty"`
	MY     int       `json:"my,omitempty"`
	Counts []float64 `json:"counts"` // row-major mx*my noisy counts
}

type agCellFile struct {
	M2     int       `json:"m2"`
	Leaves []float64 `json:"leaves"` // row-major m2*m2 post-inference counts
}

type agFile struct {
	Envelope
	Domain  [4]float64   `json:"domain"`
	Epsilon float64      `json:"epsilon"`
	Alpha   float64      `json:"alpha"`
	M1      int          `json:"m1"`
	Cells   []agCellFile `json:"cells"` // row-major m1*m1
}

// WriteTo serializes the synopsis as JSON.
func (u *UniformGrid) WriteTo(w io.Writer) (int64, error) {
	f := ugFile{
		Envelope: Envelope{Format: FormatUG, Version: serializeVersion},
		Domain:   [4]float64{u.dom.MinX, u.dom.MinY, u.dom.MaxX, u.dom.MaxY},
		Epsilon:  u.eps,
		M:        u.m,
		MX:       u.mx,
		MY:       u.my,
		Counts:   u.noisy.Values(),
	}
	return writeJSON(w, &f)
}

// WriteTo serializes the synopsis as JSON.
func (a *AdaptiveGrid) WriteTo(w io.Writer) (int64, error) {
	f := agFile{
		Envelope: Envelope{Format: FormatAG, Version: serializeVersion},
		Domain:   [4]float64{a.dom.MinX, a.dom.MinY, a.dom.MaxX, a.dom.MaxY},
		Epsilon:  a.eps,
		Alpha:    a.alpha,
		M1:       a.m1,
	}
	for k := range a.cells {
		cell := &a.cells[k]
		leaves := make([]float64, cell.m2*cell.m2)
		for ly := 0; ly < cell.m2; ly++ {
			for lx := 0; lx < cell.m2; lx++ {
				leaves[ly*cell.m2+lx] = cell.leaves.BlockSum(lx, ly, lx+1, ly+1)
			}
		}
		f.Cells = append(f.Cells, agCellFile{M2: cell.m2, Leaves: leaves})
	}
	return writeJSON(w, &f)
}

func writeJSON(w io.Writer, v any) (int64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("core: marshal synopsis: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ReadEnvelope decodes only the format header from serialized bytes.
func ReadEnvelope(data []byte) (Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Envelope{}, fmt.Errorf("core: not a synopsis file: %w", err)
	}
	if env.Format == "" {
		return Envelope{}, fmt.Errorf("core: missing format tag")
	}
	return env, nil
}

// ParseUniformGrid deserializes a UG synopsis, validating all structural
// invariants.
func ParseUniformGrid(data []byte) (*UniformGrid, error) {
	var f ugFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if f.Format != FormatUG {
		return nil, fmt.Errorf("core: format %q is not %q", f.Format, FormatUG)
	}
	if f.Version != serializeVersion {
		return nil, fmt.Errorf("core: unsupported UG version %d (have %d)", f.Version, serializeVersion)
	}
	dom, err := geom.NewDomain(f.Domain[0], f.Domain[1], f.Domain[2], f.Domain[3])
	if err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if f.M < 1 {
		return nil, fmt.Errorf("core: invalid grid size %d", f.M)
	}
	mx, my := f.MX, f.MY
	if mx == 0 && my == 0 {
		mx, my = f.M, f.M
	}
	if mx < 1 || my < 1 {
		return nil, fmt.Errorf("core: invalid grid dimensions %dx%d", mx, my)
	}
	if len(f.Counts) != mx*my {
		return nil, fmt.Errorf("core: counts length %d != mx*my = %d", len(f.Counts), mx*my)
	}
	if !(f.Epsilon > 0) {
		return nil, fmt.Errorf("core: invalid epsilon %g", f.Epsilon)
	}
	if err := checkFinite(f.Counts); err != nil {
		return nil, err
	}
	counts, err := grid.New(dom, mx, my)
	if err != nil {
		return nil, err
	}
	copy(counts.Values(), f.Counts)
	return &UniformGrid{
		dom:    dom,
		eps:    f.Epsilon,
		m:      f.M,
		mx:     mx,
		my:     my,
		noisy:  counts,
		prefix: grid.NewPrefix(counts),
	}, nil
}

// ParseAdaptiveGrid deserializes an AG synopsis, validating all
// structural invariants.
func ParseAdaptiveGrid(data []byte) (*AdaptiveGrid, error) {
	var f agFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if f.Format != FormatAG {
		return nil, fmt.Errorf("core: format %q is not %q", f.Format, FormatAG)
	}
	if f.Version != serializeVersion {
		return nil, fmt.Errorf("core: unsupported AG version %d (have %d)", f.Version, serializeVersion)
	}
	dom, err := geom.NewDomain(f.Domain[0], f.Domain[1], f.Domain[2], f.Domain[3])
	if err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if f.M1 < 1 {
		return nil, fmt.Errorf("core: invalid m1 %d", f.M1)
	}
	if len(f.Cells) != f.M1*f.M1 {
		return nil, fmt.Errorf("core: cells length %d != m1^2 = %d", len(f.Cells), f.M1*f.M1)
	}
	if !(f.Epsilon > 0) {
		return nil, fmt.Errorf("core: invalid epsilon %g", f.Epsilon)
	}
	if !(f.Alpha > 0 && f.Alpha < 1) {
		return nil, fmt.Errorf("core: invalid alpha %g", f.Alpha)
	}

	ag := &AdaptiveGrid{
		dom:   dom,
		eps:   f.Epsilon,
		alpha: f.Alpha,
		m1:    f.M1,
		cells: make([]agCell, f.M1*f.M1),
	}
	totals, err := grid.New(dom, f.M1, f.M1)
	if err != nil {
		return nil, err
	}
	leafPop := 0
	maxM2 := 1
	for iy := 0; iy < f.M1; iy++ {
		for ix := 0; ix < f.M1; ix++ {
			k := iy*f.M1 + ix
			cf := f.Cells[k]
			if cf.M2 < 1 {
				return nil, fmt.Errorf("core: cell %d: invalid m2 %d", k, cf.M2)
			}
			if len(cf.Leaves) != cf.M2*cf.M2 {
				return nil, fmt.Errorf("core: cell %d: leaves length %d != m2^2 = %d", k, len(cf.Leaves), cf.M2*cf.M2)
			}
			if err := checkFinite(cf.Leaves); err != nil {
				return nil, fmt.Errorf("core: cell %d: %w", k, err)
			}
			cellRect := dom.CellRect(ix, iy, f.M1, f.M1)
			leafGrid, err := grid.New(geom.Domain{Rect: cellRect}, cf.M2, cf.M2)
			if err != nil {
				return nil, err
			}
			copy(leafGrid.Values(), cf.Leaves)
			prefix := grid.NewPrefix(leafGrid)
			ag.cells[k] = agCell{rect: cellRect, m2: cf.M2, leaves: prefix}
			totals.Set(ix, iy, prefix.Total())
			leafPop += cf.M2 * cf.M2
			if cf.M2 > maxM2 {
				maxM2 = cf.M2
			}
		}
	}
	ag.level1 = grid.NewPrefix(totals)
	ag.leafPop = leafPop
	ag.maxM2 = maxM2
	ag.epsLevel = [2]float64{f.Alpha * f.Epsilon, (1 - f.Alpha) * f.Epsilon}
	return ag, nil
}

func checkFinite(vals []float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite count %g at index %d", v, i)
		}
	}
	return nil
}
