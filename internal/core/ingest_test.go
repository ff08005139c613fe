package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/geom/geomtest"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// ingestTestPoints mixes uniform points with points sitting exactly on
// first-level cell edges and leaf-cell edges — the coordinates where a
// binning-arithmetic change would first show.
func ingestTestPoints(n int, dom geom.Domain, m1 int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	w1, h1 := dom.CellSize(m1, m1)
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0, 1, 2:
			pts = append(pts, geom.Point{
				X: dom.MinX + rng.Float64()*dom.Width(),
				Y: dom.MinY + rng.Float64()*dom.Height(),
			})
		case 3: // exactly on a level-1 cell edge
			pts = append(pts, geom.Point{
				X: dom.MinX + float64(rng.Intn(m1))*w1,
				Y: dom.MinY + float64(rng.Intn(m1))*h1,
			})
		default: // exactly on a leaf edge of some m2 subdivision
			ix, iy := rng.Intn(m1), rng.Intn(m1)
			cell := dom.CellRect(ix, iy, m1, m1)
			m2 := 1 + rng.Intn(8)
			pts = append(pts, geom.Point{
				X: cell.MinX + float64(rng.Intn(m2))*(cell.Width()/float64(m2)),
				Y: cell.MinY + float64(rng.Intn(m2))*(cell.Height()/float64(m2)),
			})
		}
	}
	return pts
}

func agBytes(t *testing.T, ag *AdaptiveGrid) []byte {
	t.Helper()
	b, err := ag.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func ugBytes(t *testing.T, ug *UniformGrid) []byte {
	t.Helper()
	b, err := ug.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Every ingest path must release bytes bit-identical to the sequential
// in-memory build, for every Workers value and source shape, with the
// gather cap under and over the data size — including chunk-boundary
// stream sizes and points on cell/leaf edges.
func TestAGFusedBitIdentical(t *testing.T) {
	dom := geom.MustDomain(-20, 5, 100, 65)
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0), 0}
	// The default cap gathers every dataset here; 100 gathers only the
	// smallest, and 0 keeps nothing, so the later passes re-scan.
	caps := []int{gatherCap, 100, 0}
	for _, m1 := range []int{0, 8} {
		for _, n := range []int{0, 1, geom.DefaultChunkSize, geom.DefaultChunkSize + 1, 20000} {
			pts := ingestTestPoints(n, dom, 8, int64(n)+3)
			ref, err := BuildAdaptiveGridSeq(geom.SlicePoints(pts), dom, 1,
				AGOptions{M1: m1, Workers: 1}, noise.NewSource(42))
			if err != nil {
				t.Fatalf("m1=%d n=%d reference: %v", m1, n, err)
			}
			want := agBytes(t, ref)
			for _, workers := range workerCounts {
				for _, capPoints := range caps {
					for name, seq := range map[string]geom.PointSeq{"slice": geom.SlicePoints(pts), "reused": geomtest.ReusedChunks(pts)} {
						got, err := buildAdaptiveGrid(seq, dom, 1,
							AGOptions{M1: m1, Workers: workers}, noise.NewSource(42), capPoints)
						if err != nil {
							t.Fatalf("m1=%d n=%d workers=%d cap=%d %s: %v", m1, n, workers, capPoints, name, err)
						}
						if !bytes.Equal(agBytes(t, got), want) {
							t.Fatalf("m1=%d n=%d workers=%d cap=%d %s: released bytes differ from the sequential in-memory build",
								m1, n, workers, capPoints, name)
						}
					}
				}
			}
		}
	}
}

// UG releases the same bytes for every Workers value and source shape,
// with the gather cap under and over the data size.
func TestUGBitIdenticalAcrossWorkers(t *testing.T) {
	dom := geom.MustDomain(0, 0, 360, 150)
	pts := ingestTestPoints(30000, dom, 16, 9)
	for _, gridSize := range []int{0, 32} {
		ref, err := BuildUniformGridSeq(geom.SlicePoints(pts), dom, 1,
			UGOptions{GridSize: gridSize, Workers: 1}, noise.NewSource(7))
		if err != nil {
			t.Fatal(err)
		}
		want := ugBytes(t, ref)
		for _, workers := range []int{1, 2, 7, 0, runtime.GOMAXPROCS(0)} {
			for _, capPoints := range []int{gatherCap, 0} {
				for name, seq := range map[string]geom.PointSeq{"slice": geom.SlicePoints(pts), "reused": geomtest.ReusedChunks(pts)} {
					got, err := buildUniformGrid(seq, dom, 1,
						UGOptions{GridSize: gridSize, Workers: workers}, noise.NewSource(7), capPoints)
					if err != nil {
						t.Fatalf("m=%d workers=%d cap=%d %s: %v", gridSize, workers, capPoints, name, err)
					}
					if !bytes.Equal(ugBytes(t, got), want) {
						t.Fatalf("m=%d workers=%d cap=%d %s: released bytes differ (not bit-identical)", gridSize, workers, capPoints, name)
					}
				}
			}
		}
	}
}

// UG's scan parallelism must not require a Forkable source — the noise
// is drawn after the scans, on the calling goroutine.
func TestUGWorkersWithPlainSource(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := ingestTestPoints(5000, dom, 4, 11)
	if _, err := BuildUniformGridSeq(geom.SlicePoints(pts), dom, 1,
		UGOptions{GridSize: 16, Workers: 4}, noise.FromRand(rand.New(rand.NewSource(1)))); err != nil {
		t.Fatalf("plain source with Workers > 1: %v", err)
	}
}

// scanSeq counts complete scans of the source.
type scanSeq struct {
	pts   []geom.Point
	scans *int
}

func (s scanSeq) ForEachChunk(fn func([]geom.Point) error) error {
	*s.scans++
	return geom.SlicePoints(s.pts).ForEachChunk(fn)
}

// The ingest plan uses an in-memory source in place — a geom.Blocks
// as much as a geom.SlicePoints, since a never-spilled shard tile
// arrives as one — and gathers any other source into blocks.
func TestIngestUsesMemoryInPlace(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	pts := ingestTestPoints(3*geom.DefaultChunkSize, dom, 8, 4)
	var blocks geom.Blocks
	for _, p := range pts {
		blocks.Append(p)
	}
	first := func(seq geom.PointSeq) (p *geom.Point) {
		_ = seq.ForEachChunk(func(chunk []geom.Point) error {
			p = &chunk[0]
			return errors.New("stop")
		})
		return p
	}
	for _, needN := range []bool{false, true} {
		for name, seq := range map[string]geom.PointSeq{"slice": geom.SlicePoints(pts), "blocks": blocks} {
			data, n, err := ingest(seq, dom, 2, gatherCap, needN)
			if err != nil {
				t.Fatalf("%s needN=%v: %v", name, needN, err)
			}
			if first(data) != first(seq) {
				t.Errorf("%s needN=%v: data is a copy, want the source itself", name, needN)
			}
			if want := int64(len(pts)); needN && n != want {
				t.Errorf("%s: n = %d, want %d", name, n, want)
			}
		}
	}
	data, n, err := ingest(geomtest.ReusedChunks(pts), dom, 2, gatherCap, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := data.(geom.Blocks); !ok || n != int64(len(pts)) {
		t.Errorf("streamed source: data %T with n = %d, want gathered geom.Blocks of %d", data, n, len(pts))
	}
}

// How many times each build configuration reads a source that is not
// an in-memory slice: one gathering scan under the cap; past it, the
// gathering scan plus a re-scan for the level-1 histogram and one for
// the leaf pass.
func TestAGScanCounts(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	pts := ingestTestPoints(10000, dom, 8, 5)
	cases := []struct {
		name      string
		opts      AGOptions
		capPoints int
		scans     int
	}{
		{"m1-fixed-under-cap", AGOptions{M1: 8}, gatherCap, 1},
		{"m1-fixed-over-cap", AGOptions{M1: 8}, 100, 3},
		{"m1-auto-under-cap", AGOptions{}, gatherCap, 1},
		{"m1-auto-over-cap", AGOptions{}, 100, 3},
	}
	for _, tc := range cases {
		scans := 0
		if _, err := buildAdaptiveGrid(scanSeq{pts, &scans}, dom, 1, tc.opts, noise.NewSource(3), tc.capPoints); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if scans != tc.scans {
			t.Errorf("%s: %d scans of the source, want %d", tc.name, scans, tc.scans)
		}
	}
}

// failSeq delivers one point per scan and fails the scan numbered
// failAt, so a build past the gather cap can be made to fail on its
// histogram re-scan or its leaf re-scan.
type failSeq struct {
	scans  *int
	failAt int
}

func (f failSeq) ForEachChunk(fn func([]geom.Point) error) error {
	*f.scans++
	if err := fn([]geom.Point{{X: 0.5, Y: 0.5}}); err != nil {
		return err
	}
	if *f.scans == f.failAt {
		return errors.New("disk on fire")
	}
	return nil
}

// Past the gather cap the level-1 histogram and the leaf pass re-scan
// the source, and a failure on either re-scan must reach the caller.
func TestAGRescanErrorPropagates(t *testing.T) {
	dom := geom.MustDomain(0, 0, 1, 1)
	for _, failAt := range []int{2, 3} {
		scans := 0
		_, err := buildAdaptiveGrid(failSeq{&scans, failAt}, dom, 1, AGOptions{M1: 2}, noise.NewSource(1), 0)
		if err == nil || !strings.Contains(err.Error(), "disk on fire") {
			t.Errorf("failure on scan %d not propagated: %v", failAt, err)
		}
		if scans != failAt {
			t.Errorf("failure on scan %d: build made %d scans, want %d", failAt, scans, failAt)
		}
	}
}

// How many times each UG configuration reads a source that is not in
// memory: a fixed m histograms in one direct scan; a data-dependent m
// gathers the points by the scan that counts them, and past the cap
// re-scans the source for the histogram.
func TestUGScanCounts(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	pts := ingestTestPoints(10000, dom, 8, 6)
	for _, tc := range []struct {
		name      string
		opts      UGOptions
		capPoints int
		scans     int
	}{
		{"m-fixed", UGOptions{GridSize: 32}, gatherCap, 1},
		{"m-auto", UGOptions{}, gatherCap, 1},
		{"m-auto-over-cap", UGOptions{}, 100, 2}, // counting scan + histogram scan
	} {
		scans := 0
		if _, err := buildUniformGrid(scanSeq{pts, &scans}, dom, 1, tc.opts, noise.NewSource(3), tc.capPoints); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if scans != tc.scans {
			t.Errorf("%s: %d scans of the source, want %d", tc.name, scans, tc.scans)
		}
	}
}
