package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"github.com/dpgrid/dpgrid/internal/gridnd"
	"github.com/dpgrid/dpgrid/internal/hierarchy"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// appendable is a release that serializes to dpgridv2 bytes.
type appendable interface {
	AppendBinary([]byte) ([]byte, error)
}

// releaseHash returns the SHA-256 of the concatenated binary releases.
func releaseHash(t *testing.T, rels ...appendable) string {
	t.Helper()
	var buf []byte
	for _, r := range rels {
		var err error
		if buf, err = r.AppendBinary(buf); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestHierarchyBuildersPinned pins, at fixed seeds, the released bits
// of every builder that runs the constrained-inference hierarchy
// (hierarchy, gridnd) and the measured dimension study, so a
// change to the shared level/noise/inference code cannot move an
// answer unnoticed.
func TestHierarchyBuildersPinned(t *testing.T) {
	d := quickDataset(t, "checkin")
	seeds := []int64{1, 2, 3}

	t.Run("hierarchy", func(t *testing.T) {
		for _, tc := range []struct {
			opts hierarchy.Options
			want string
		}{
			{hierarchy.Options{GridSize: 360, Branching: 2, Depth: 3}, "451c5b2feb752b3cc615b43820e0ce20cdc8340ddfd2551aabef7ba59b29dd7d"},
			{hierarchy.Options{GridSize: 240, Branching: 6, Depth: 2}, "ede1093299461f8ce8fa1ead12372e14a99fb13fe9c53fd7da665c9b2f71d9a3"},
			{hierarchy.Options{GridSize: 64, Branching: 4, Depth: 4}, "359da0bb80a89d3aa194e7c3753113d6bbc9bbb5300d9e0e946447fabfd5bb2c"},
			{hierarchy.Options{GridSize: 64, Branching: 2, Depth: 1}, "1bdf56952e74904878e0fad621f12de1a8d600a84fd72b15dbd986087ca1c3c6"},
		} {
			var rels []appendable
			for _, s := range seeds {
				h, err := hierarchy.BuildHierarchy(d.Points, d.Domain, 1, tc.opts, noise.NewSource(s))
				if err != nil {
					t.Fatal(err)
				}
				rels = append(rels, h)
			}
			if got := releaseHash(t, rels...); got != tc.want {
				t.Errorf("%+v: release hash %s, want %s", tc.opts, got, tc.want)
			}
		}
	})

	t.Run("gridnd", func(t *testing.T) {
		for _, tc := range []struct {
			dim, m, b, depth int
			want             string
		}{
			{1, 64, 2, 4, "9222e27672e0f4b5102f97cbeeb99c96d98a490de623d3a8a89ac04286b1bbc5"},
			{2, 16, 2, 3, "921d287ef3c688c2252bf57869f8a59239ccea4980ba7500eb7a93fb5b111ac4"},
			{3, 8, 2, 3, "f1688dd4070803cce2a86c4cc43a835e85f41de5a0300360ae1c9625fcc7acb5"},
			{4, 8, 2, 2, "2a74fdfccd0f67284f0f07109b62029298953c9c9421b2ec3ed6053c528d0a5f"},
		} {
			lo, hi := make([]float64, tc.dim), make([]float64, tc.dim)
			for k := range hi {
				hi[k] = 10
			}
			dom, err := gridnd.NewDomain(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			pts := randomPointsND(int64(tc.dim), 4000, tc.dim)
			h := sha256.New()
			for _, s := range seeds {
				flat, err := gridnd.BuildFlat(pts, dom, tc.m, 1, noise.NewSource(s))
				if err != nil {
					t.Fatal(err)
				}
				hier, err := gridnd.BuildHierarchical(pts, dom, tc.m, tc.b, tc.depth, 1, noise.NewSource(s))
				if err != nil {
					t.Fatal(err)
				}
				qrng := rand.New(rand.NewSource(s))
				for q := 0; q < 100; q++ {
					box := gridnd.Box{Lo: make([]float64, tc.dim), Hi: make([]float64, tc.dim)}
					for k := 0; k < tc.dim; k++ {
						a, b := qrng.Float64()*10, qrng.Float64()*10
						box.Lo[k], box.Hi[k] = math.Min(a, b), math.Max(a, b)
					}
					for _, g := range []*gridnd.Grid{flat, hier} {
						h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(g.Query(box))))
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("d=%d: answer hash %s, want %s", tc.dim, got, tc.want)
			}
		}
	})

	t.Run("dimension study", func(t *testing.T) {
		rows, err := HierarchyGainByDimension(1, ExpOptions{Scale: 0.05, Queries: 60, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]float64{
			{266.9889827846124, 35.798567783102349},
			{169.01967783109995, 124.93446194234561},
			{99.35195891856209, 148.56864564892643},
			{29.572132225946703, 53.774753394518029},
		}
		if len(rows) != len(want) {
			t.Fatalf("rows = %d, want %d", len(rows), len(want))
		}
		for i, r := range rows {
			for j, got := range []float64{r.FlatErr, r.HierErr} {
				if w := want[i][j]; math.Abs(got-w) > 1e-9*math.Abs(w) {
					t.Errorf("dim %d error %d = %.17g, want %.17g", r.Dim, j, got, w)
				}
			}
		}
	})
}

// randomPointsND draws n uniform points in [0,10]^dim.
func randomPointsND(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for k := range pts[i] {
			pts[i][k] = rng.Float64() * 10
		}
	}
	return pts
}
