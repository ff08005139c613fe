package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Serialization of released synopses. A synopsis is the publishable
// artifact of the whole pipeline (the paper's definition: "the boundaries
// of these cells and their noisy counts"), so it must survive a round
// trip to disk: the data holder builds and saves once; analysts load and
// query forever after without the raw data.
//
// This file holds the versioned JSON format, with an explicit format
// tag per synopsis kind, and the one validator per kind that both
// encodings share: the JSON decoders here and the binary ones in
// binary.go check the domain and epsilon every release opens with
// (codec.DecodeJSONHead, codec.OpenHead), decode the rest into ugParts
// or agParts, run its check on the header before any section is read
// or sized, and finish with its build, which checks the tables
// (lengths, finite counts, valid prefix sums) and assembles the
// synopsis; an AG's cell tables are checked and added one at a time as
// they are decoded (agParts.addCell) before its build. Grid sizes are
// bounded per axis before any product is taken, so a hostile size
// cannot wrap past the cap. A corrupted or
// hand-edited file fails loudly, with the same error in either
// encoding, instead of answering garbage.

const (
	// FormatUG tags serialized UniformGrid synopses.
	FormatUG = "dpgrid/uniform-grid"
	// FormatAG tags serialized AdaptiveGrid synopses.
	FormatAG = "dpgrid/adaptive-grid"
	// serializeVersion is bumped on breaking format changes.
	serializeVersion = 1
)

type ugFile struct {
	codec.Head
	M int `json:"m"`
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
	codec.Head
	Alpha float64      `json:"alpha"`
	M1    int          `json:"m1"`
	Cells []agCellFile `json:"cells"` // row-major m1*m1
}

// ugParts is a decoded, not yet validated UG release. Its domain and
// epsilon are checked as they are read (codec.DecodeJSONHead,
// codec.OpenHead).
type ugParts struct {
	dom       geom.Domain
	eps       float64
	m, mx, my int
	counts    []float64 // row-major mx*my
	sat       []float64 // the stored summed-area trailer; nil without one, and always from JSON
}

// check validates the header's sizes: the nominal size and the
// dimensions.
func (p *ugParts) check() error {
	if p.m < 1 || p.m > grid.MaxCells {
		return fmt.Errorf("core: invalid grid size %d", p.m)
	}
	if !grid.Fits(p.mx, p.my) {
		return fmt.Errorf("core: invalid grid dimensions %dx%d", p.mx, p.my)
	}
	return nil
}

// build checks the counts' length and finiteness and a stored
// summed-area table bit for bit against them, then returns the
// synopsis, which keeps the counts and an adopted table in place.
func (p *ugParts) build() (*UniformGrid, error) {
	counts, err := grid.FromValues(p.dom, p.mx, p.my, p.counts)
	if err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	if err := checkFinite(p.counts); err != nil {
		return nil, err
	}
	// A stored table verified bit-identical to the one NewPrefix would
	// build answers and re-encodes identically; adopting it skips the
	// rebuild.
	prefix, err := grid.AdoptPrefix(counts, p.sat)
	if err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	return &UniformGrid{
		dom:       p.dom,
		eps:       p.eps,
		m:         p.m,
		mx:        p.mx,
		my:        p.my,
		noisy:     counts,
		prefix:    prefix,
		satBacked: p.sat != nil,
	}, nil
}

// agParts is a decoded, not yet validated AG release. Its domain and
// epsilon are checked as they are read, as ugParts' are; its cells are
// checked and added to the synopsis one at a time, as they are read.
type agParts struct {
	dom        geom.Domain
	eps, alpha float64
	m1         int
	sat        []float64     // the stored level-1 trailer; nil without one, and always from JSON
	ag         *AdaptiveGrid // the synopsis being assembled, from begin on
}

// check validates the header's alpha and m1.
func (p *agParts) check() error {
	if !(p.alpha > 0 && p.alpha < 1) {
		return fmt.Errorf("core: invalid alpha %g", p.alpha)
	}
	if !grid.Fits(p.m1, p.m1) {
		return fmt.Errorf("core: invalid m1 %d", p.m1)
	}
	return nil
}

// checkM2 bounds cell k's second-level grid size, before the cell's
// table is read or sized.
func checkM2(k, m2 int) error {
	if !grid.Fits(m2, m2) {
		return fmt.Errorf("core: cell %d: invalid m2 %d", k, m2)
	}
	return nil
}

// begin sizes the synopsis for its m1*m1 cells. The decoders call it
// once the input is known to hold that many.
func (p *agParts) begin() {
	p.ag = &AdaptiveGrid{
		dom:      p.dom,
		eps:      p.eps,
		alpha:    p.alpha,
		m1:       p.m1,
		cells:    make([]agCell, 0, p.m1*p.m1),
		maxM2:    1,
		epsLevel: [2]float64{p.alpha * p.eps, (1 - p.alpha) * p.eps},
	}
}

// addCell checks the next cell's (m2+1)^2 sums table
// (grid.PrefixFromSums) and adds the cell, which keeps the table in
// place.
func (p *agParts) addCell(m2 int, sums []float64) error {
	k := len(p.ag.cells)
	cellRect := p.dom.CellRect(k%p.m1, k/p.m1, p.m1, p.m1)
	leaves, err := grid.PrefixFromSums(geom.Domain{Rect: cellRect}, m2, m2, sums)
	if err != nil {
		return fmt.Errorf("core: cell %d: %w", k, err)
	}
	p.ag.cells = append(p.ag.cells, agCell{rect: cellRect, m2: m2, leaves: leaves})
	p.ag.leafPop += m2 * m2
	p.ag.maxM2 = max(p.ag.maxM2, m2)
	return nil
}

// build checks a stored level-1 table bit for bit against the cell
// totals (each table's last entry), and returns the synopsis.
func (p *agParts) build() (*AdaptiveGrid, error) {
	totals := make([]float64, len(p.ag.cells))
	for k := range p.ag.cells {
		totals[k] = p.ag.cells[k].leaves.Total()
	}
	level1, err := grid.FromValues(p.dom, p.m1, p.m1, totals)
	if err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	if p.ag.level1, err = grid.AdoptPrefix(level1, p.sat); err != nil {
		return nil, fmt.Errorf("core: parse synopsis: %w", err)
	}
	p.ag.satBacked = p.sat != nil
	return p.ag, nil
}

// WriteTo serializes the synopsis as JSON.
func (u *UniformGrid) WriteTo(w io.Writer) (int64, error) {
	f := ugFile{
		Head:   codec.NewHead(FormatUG, serializeVersion, u.dom, u.eps),
		M:      u.m,
		MX:     u.mx,
		MY:     u.my,
		Counts: u.noisy.Values(),
	}
	return writeJSON(w, &f)
}

// WriteTo serializes the synopsis as JSON.
func (a *AdaptiveGrid) WriteTo(w io.Writer) (int64, error) {
	f := agFile{
		Head:  codec.NewHead(FormatAG, serializeVersion, a.dom, a.eps),
		Alpha: a.alpha,
		M1:    a.m1,
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
func ReadEnvelope(data []byte) (codec.Envelope, error) {
	var env codec.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return codec.Envelope{}, fmt.Errorf("core: not a synopsis file: %w", err)
	}
	if env.Format == "" {
		return codec.Envelope{}, fmt.Errorf("core: missing format tag")
	}
	return env, nil
}

// ParseUniformGrid deserializes a UG synopsis, validating all structural
// invariants.
func ParseUniformGrid(data []byte) (*UniformGrid, error) {
	var f ugFile
	dom, err := codec.DecodeJSONHead("core", data, &f, FormatUG, serializeVersion)
	if err != nil {
		return nil, err
	}
	p := ugParts{dom: dom, eps: f.Epsilon, m: f.M, mx: f.MX, my: f.MY, counts: f.Counts}
	if p.mx == 0 && p.my == 0 {
		p.mx, p.my = p.m, p.m
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.build()
}

// ParseAdaptiveGrid deserializes an AG synopsis, validating all
// structural invariants. Each cell's leaves become its prefix-sum table
// once m2 and the leaf count pass their bounds.
func ParseAdaptiveGrid(data []byte) (*AdaptiveGrid, error) {
	var f agFile
	dom, err := codec.DecodeJSONHead("core", data, &f, FormatAG, serializeVersion)
	if err != nil {
		return nil, err
	}
	p := agParts{dom: dom, eps: f.Epsilon, alpha: f.Alpha, m1: f.M1}
	if err := p.check(); err != nil {
		return nil, err
	}
	for k, cf := range f.Cells {
		if err := checkM2(k, cf.M2); err != nil {
			return nil, err
		}
		if len(cf.Leaves) != cf.M2*cf.M2 {
			return nil, fmt.Errorf("core: cell %d: leaves length %d != m2^2 = %d", k, len(cf.Leaves), cf.M2*cf.M2)
		}
	}
	if n := p.m1 * p.m1; len(f.Cells) != n {
		return nil, fmt.Errorf("core: cells length %d != m1^2 = %d", len(f.Cells), n)
	}
	p.begin()
	for _, cf := range f.Cells {
		if err := p.addCell(cf.M2, grid.NewSAT([]int{cf.M2, cf.M2}, cf.Leaves).Sums()); err != nil {
			return nil, err
		}
	}
	return p.build()
}

func checkFinite(vals []float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite count %g at index %d", v, i)
		}
	}
	return nil
}
