package core

import (
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// FuzzParseUniformGrid: the UG container parser must never panic and
// must either return a valid, queryable synopsis or an error, no matter
// the input bytes. Run with `go test -fuzz=FuzzParseUniformGrid ./internal/core`.
func FuzzParseUniformGrid(f *testing.F) {
	// Seed corpus: a valid container, a truncation of it, a bare
	// header, garbage, and a count at the edge of float64.
	dom := geom.MustDomain(0, 0, 4, 4)
	ug, err := BuildUniformGrid(nil, dom, 1, UGOptions{GridSize: 2}, noise.Zero)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := ug.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(codec.NewEnc(nil, codec.KindUniform).Bytes())
	f.Add([]byte(`not a container at all`))
	f.Add(buildRawUG([4]float64{0, 0, 1, 1}, 1, 1, 1, 1, []float64{1e308}))

	f.Fuzz(func(t *testing.T, data []byte) {
		syn, err := ParseUniformGridBinary(data)
		if err != nil {
			return
		}
		// A successfully parsed synopsis must answer queries with finite
		// values.
		got := syn.Query(geom.NewRect(-1e9, -1e9, 1e9, 1e9))
		if got != got { // NaN check
			t.Fatalf("parsed synopsis produced NaN answer")
		}
	})
}

// FuzzParseAdaptiveGrid mirrors FuzzParseUniformGrid for AG containers.
func FuzzParseAdaptiveGrid(f *testing.F) {
	dom := geom.MustDomain(0, 0, 4, 4)
	ag, err := BuildAdaptiveGrid(nil, dom, 1, AGOptions{M1: 2}, noise.Zero)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := ag.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])
	f.Add(codec.NewEnc(nil, codec.KindAdaptive).Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		syn, err := ParseAdaptiveGridBinary(data)
		if err != nil {
			return
		}
		got := syn.Query(geom.NewRect(0, 0, 4, 4))
		if got != got {
			t.Fatalf("parsed synopsis produced NaN answer")
		}
	})
}
