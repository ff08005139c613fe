package grid

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/geom/geomtest"
)

// parallelTestPoints mixes uniform points with points sitting exactly
// on cell edges of an mx x my grid (interior edges and the domain
// boundary), the coordinates where binning conventions bite.
func parallelTestPoints(n int, dom geom.Domain, mx, my int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	w, h := dom.CellSize(mx, my)
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0, 1:
			pts = append(pts, geom.Point{
				X: dom.MinX + rng.Float64()*dom.Width(),
				Y: dom.MinY + rng.Float64()*dom.Height(),
			})
		case 2: // on an interior cell edge
			pts = append(pts, geom.Point{
				X: dom.MinX + float64(rng.Intn(mx))*w,
				Y: dom.MinY + float64(rng.Intn(my))*h,
			})
		default: // on the domain boundary (incl. max edges)
			pts = append(pts, geom.Point{X: dom.MaxX, Y: dom.MinY + rng.Float64()*dom.Height()})
		}
	}
	return pts
}

// referenceHistogram is the pre-engine histogram implementation: a
// per-point scan binning with geom.Domain.CellIndex. The chunked kernel
// and every parallel merge must reproduce it bit for bit.
func referenceHistogram(t *testing.T, dom geom.Domain, mx, my int, pts []geom.Point) *Counts {
	t.Helper()
	c, err := New(dom, mx, my)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !dom.Contains(p) {
			continue
		}
		ix, iy := dom.CellIndex(p, mx, my)
		c.vals[iy*mx+ix]++
	}
	return c
}

func sameCounts(t *testing.T, name string, got, want *Counts) {
	t.Helper()
	gv, wv := got.Values(), want.Values()
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d cells, want %d", name, len(gv), len(wv))
	}
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("%s: cell %d = %g, want %g (not bit-identical)", name, i, gv[i], wv[i])
		}
	}
}

func TestFromSeqMatchesCellIndexReference(t *testing.T) {
	dom := geom.MustDomain(-30, 10, 90, 70)
	pts := parallelTestPoints(20000, dom, 13, 7, 1)
	want := referenceHistogram(t, dom, 13, 7, pts)
	got, err := FromPoints(dom, 13, 7, pts)
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, "FromPoints", got, want)
}

// The determinism property: FromSeqParallel must equal the per-point
// reference bit for bit for every worker count, chunk-boundary stream
// size, and source type — including a source that reuses and poisons
// its chunk buffer, which catches any path that keeps a chunk past the
// callback.
func TestFromSeqParallelMatchesSequential(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	mx, my := 16, 16
	sizes := []int{0, 1, geom.DefaultChunkSize - 1, geom.DefaultChunkSize, geom.DefaultChunkSize + 1, 50000}
	workerCounts := []int{1, 2, 7, 0, runtime.GOMAXPROCS(0)}
	for _, n := range sizes {
		pts := parallelTestPoints(n, dom, mx, my, int64(n)+7)
		want := referenceHistogram(t, dom, mx, my, pts)
		csvPath := filepath.Join(t.TempDir(), "pts.csv")
		f, err := os.Create(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := datasets.WriteCSV(f, pts); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		seqs := map[string]geom.PointSeq{
			"slice":  geom.SlicePoints(pts),
			"reused": geomtest.ReusedChunks(pts),
			"csv":    datasets.CSVFileSeq{Path: csvPath},
		}
		for name, seq := range seqs {
			for _, workers := range workerCounts {
				got, err := FromSeqParallel(dom, mx, my, seq, workers)
				if err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, name, workers, err)
				}
				sameCounts(t, name, got, want)
			}
		}
	}
}

// failingSeq streams one point and then fails, as a source whose disk
// dies mid-stream would.
type failingSeq struct{ err error }

func (s failingSeq) ForEachChunk(fn func([]geom.Point) error) error {
	if err := fn([]geom.Point{{X: 0.5, Y: 0.5}}); err != nil {
		return err
	}
	return s.err
}

func TestFromSeqParallelPropagatesError(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		if _, err := FromSeqParallel(dom, 4, 4, failingSeq{boom}, workers); !errors.Is(err, boom) {
			t.Errorf("workers=%d: error = %v, want boom", workers, err)
		}
	}
}
