package core

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/dpgrid/dpgrid/internal/codec"
)

// Serialization of released synopses. A synopsis is the publishable
// artifact of the whole pipeline (the paper's definition: "the boundaries
// of these cells and their noisy counts"), so it must survive a round
// trip to disk: the data holder builds and saves once; analysts load and
// query forever after without the raw data.
//
// The dpgridv2 container (binary.go) is the one encoding that loads.
// This file holds the versioned JSON dump, with an explicit format tag
// per synopsis kind: a readable rendering of the same release that
// nothing reads back.

// serializeVersion is bumped on breaking format changes.
const serializeVersion = 1

type ugFile struct {
	codec.Head
	M int `json:"m"`
	// MX, MY are the actual grid dimensions; M is the nominal size.
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

// WriteTo serializes the synopsis as JSON.
func (u *UniformGrid) WriteTo(w io.Writer) (int64, error) {
	f := ugFile{
		Head:   codec.NewHead(codec.KindUniform, serializeVersion, u.dom, u.eps),
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
		Head:  codec.NewHead(codec.KindAdaptive, serializeVersion, a.dom, a.eps),
		Alpha: a.alpha,
		M1:    a.m1,
	}
	for k := range a.cells {
		cell := &a.cells[k]
		m2, _ := cell.Dims()
		leaves := make([]float64, m2*m2)
		for ly := 0; ly < m2; ly++ {
			for lx := 0; lx < m2; lx++ {
				leaves[ly*m2+lx] = cell.BlockSum(lx, ly, lx+1, ly+1)
			}
		}
		f.Cells = append(f.Cells, agCellFile{M2: m2, Leaves: leaves})
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
