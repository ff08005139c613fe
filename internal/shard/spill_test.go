package shard

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/geom/geomtest"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// spillTestPoints mixes uniform points with points exactly on tile
// edges, where routing conventions (higher tile owns the edge) bite.
func spillTestPoints(n int, plan Plan, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	dom := plan.Domain()
	kx, ky := plan.Dims()
	w, h := dom.CellSize(kx, ky)
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			pts = append(pts, geom.Point{
				X: dom.MinX + float64(rng.Intn(kx))*w,
				Y: dom.MinY + float64(rng.Intn(ky))*h,
			})
			continue
		}
		pts = append(pts, geom.Point{
			X: dom.MinX + rng.Float64()*dom.Width(),
			Y: dom.MinY + rng.Float64()*dom.Height(),
		})
	}
	return pts
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

func shardedBytes(t *testing.T, s *Sharded) []byte {
	t.Helper()
	b, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The one-scan acceptance property: a streaming sharded build reads the
// raw source exactly once, no matter how many tiles the plan has.
func TestStreamingBuildScansSourceOnce(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 3}} {
		plan, err := NewPlan(dom, dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		pts := spillTestPoints(20000, plan, 5)
		for name, build := range map[string]func(seq geom.PointSeq) error{
			"uniform": func(seq geom.PointSeq) error {
				_, err := BuildUniformSeq(seq, plan, 1, core.UGOptions{GridSize: 8}, Options{}, noise.NewSource(1))
				return err
			},
			"adaptive": func(seq geom.PointSeq) error {
				_, err := BuildAdaptiveSeq(seq, plan, 1, core.AGOptions{}, Options{}, noise.NewSource(1))
				return err
			},
		} {
			scans := 0
			if err := build(scanSeq{pts, &scans}); err != nil {
				t.Fatalf("%dx%d %s: %v", dims[0], dims[1], name, err)
			}
			if scans != 1 {
				t.Errorf("%dx%d %s: %d scans of the source, want 1", dims[0], dims[1], name, scans)
			}
		}
	}
}

// The streaming build must release the bit-identical mosaic to the
// in-memory bucket build — including when tiny spill budgets force
// every tile through its on-disk spool, and when the source reuses and
// poisons its chunk buffer, so a partitioner that kept a chunk instead
// of copying its points would route NaN.
func TestStreamingBuildMatchesBuckets(t *testing.T) {
	dom := geom.MustDomain(-10, -40, 110, 80)
	plan, err := NewPlan(dom, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := spillTestPoints(15000, plan, 9)

	refU, err := BuildUniform(pts, plan, 1, core.UGOptions{}, Options{}, noise.NewSource(21))
	if err != nil {
		t.Fatal(err)
	}
	wantU := shardedBytes(t, refU)
	refA, err := BuildAdaptive(pts, plan, 1, core.AGOptions{}, Options{}, noise.NewSource(22))
	if err != nil {
		t.Fatal(err)
	}
	wantA := shardedBytes(t, refA)

	for _, budget := range []int{0, 64} { // default in-memory vs forced spill-to-disk
		for name, seq := range map[string]geom.PointSeq{"slice": geom.SlicePoints(pts), "reused": geomtest.ReusedChunks(pts)} {
			gotU, err := BuildUniformSeq(seq, plan, 1, core.UGOptions{}, Options{MaxBufferedPoints: budget}, noise.NewSource(21))
			if err != nil {
				t.Fatalf("budget=%d %s uniform: %v", budget, name, err)
			}
			if !bytes.Equal(shardedBytes(t, gotU), wantU) {
				t.Errorf("budget=%d %s: streaming uniform mosaic differs from bucket build", budget, name)
			}
			gotA, err := BuildAdaptiveSeq(seq, plan, 1, core.AGOptions{}, Options{MaxBufferedPoints: budget}, noise.NewSource(22))
			if err != nil {
				t.Fatalf("budget=%d %s adaptive: %v", budget, name, err)
			}
			if !bytes.Equal(shardedBytes(t, gotA), wantA) {
				t.Errorf("budget=%d %s: streaming adaptive mosaic differs from bucket build", budget, name)
			}
		}
	}
}

// tilePoints collects one full pass over tile i's spool.
func tilePoints(t *testing.T, sp *spill, i int) []geom.Point {
	t.Helper()
	var got []geom.Point
	if err := sp.tileSeq(i).ForEachChunk(func(chunk []geom.Point) error {
		got = append(got, chunk...)
		return nil
	}); err != nil {
		t.Fatalf("tile %d: %v", i, err)
	}
	return got
}

// partitionSpill must route every in-domain point to exactly one tile,
// preserving stream order within each tile, across spill sweeps, for a
// slice source and for one that reuses and poisons its chunk buffer.
func TestPartitionSpillRoutesAndOrders(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	plan, err := NewPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := spillTestPoints(5000, plan, 3)
	pts = append(pts, geom.Point{X: -5, Y: 5}, geom.Point{X: 5, Y: 11}) // out of domain: dropped
	var want [4][]geom.Point
	for _, p := range pts {
		if i := plan.TileIndex(p); i >= 0 {
			want[i] = append(want[i], p)
		}
	}
	for name, seq := range map[string]geom.PointSeq{"slice": geom.SlicePoints(pts), "reused": geomtest.ReusedChunks(pts)} {
		sp, err := partitionSpill(seq, plan, 128) // force many sweeps
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < plan.NumTiles(); i++ {
			got := tilePoints(t, sp, i)
			if len(got) != len(want[i]) {
				t.Fatalf("%s tile %d: %d points, want %d", name, i, len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("%s tile %d point %d: %v, want %v (order or routing broken)", name, i, j, got[j], want[i][j])
				}
			}
			// Spools must replay identically on a second pass (AG re-reads).
			if n := len(tilePoints(t, sp, i)); n != len(want[i]) {
				t.Fatalf("%s tile %d: replay saw %d points, want %d", name, i, n, len(want[i]))
			}
		}
		if err := sp.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

// A streaming sharded build whose points fit the spill budget never
// touches the file system, so it must succeed — with the in-memory
// build's bytes — when the temp directory is unusable; one that has to
// spill must report the directory failure.
func TestStreamingBuildWithoutTempDir(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	plan, err := NewPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	pts := []geom.Point{{X: 1, Y: 1}, {X: 6, Y: 2}, {X: 7, Y: 8}}
	ref, err := BuildAdaptive(pts, plan, 1, core.AGOptions{}, Options{}, noise.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildAdaptiveSeq(geom.SlicePoints(pts), plan, 1, core.AGOptions{}, Options{}, noise.NewSource(5))
	if err != nil {
		t.Fatalf("build that never spills: %v", err)
	}
	if !bytes.Equal(shardedBytes(t, got), shardedBytes(t, ref)) {
		t.Error("streaming mosaic differs from the in-memory build")
	}
	_, err = BuildAdaptiveSeq(geom.SlicePoints(pts), plan, 1, core.AGOptions{}, Options{MaxBufferedPoints: 1}, noise.NewSource(5))
	if err == nil || !strings.Contains(err.Error(), "spill dir") {
		t.Errorf("build that must spill: error = %v, want a spill dir error", err)
	}
}
