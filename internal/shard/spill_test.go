package shard

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
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

// buildBuckets is the reference partition the sharded builds are
// checked against: a serial TileIndex loop into one slice per tile, fed
// to the shared fan-out, so the partition under test is never compared
// with itself.
func buildBuckets(pts []geom.Point, plan Plan, eps float64, tileKind codec.Kind, src noise.Source,
	mk func(tile geom.Domain, seq geom.PointSeq, shardSrc noise.Source) (Synopsis, error)) (*Sharded, error) {
	buckets := make([][]geom.Point, plan.NumTiles())
	for _, p := range pts {
		if i := plan.TileIndex(p); i >= 0 {
			buckets[i] = append(buckets[i], p)
		}
	}
	return build(plan, eps, Options{}, src, tileKind,
		func(i int, tile geom.Domain, shardSrc noise.Source) (Synopsis, error) {
			return mk(tile, geom.SlicePoints(buckets[i]), shardSrc)
		})
}

func bucketsUniform(pts []geom.Point, plan Plan, eps float64, opts core.UGOptions, src noise.Source) (*Sharded, error) {
	return buildBuckets(pts, plan, eps, codec.KindUniform, src,
		func(tile geom.Domain, seq geom.PointSeq, shardSrc noise.Source) (Synopsis, error) {
			return core.BuildUniformGridSeq(seq, tile, eps, opts, shardSrc)
		})
}

func bucketsAdaptive(pts []geom.Point, plan Plan, eps float64, opts core.AGOptions, src noise.Source) (*Sharded, error) {
	return buildBuckets(pts, plan, eps, codec.KindAdaptive, src,
		func(tile geom.Domain, seq geom.PointSeq, shardSrc noise.Source) (Synopsis, error) {
			return core.BuildAdaptiveGridSeq(seq, tile, eps, opts, shardSrc)
		})
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

// The in-memory and streaming builds must release the bit-identical
// mosaic to the reference bucket build — including when tiny spill
// budgets force every tile through its on-disk spool, and when the
// source reuses and poisons its chunk buffer, so a partitioner that
// kept a chunk instead of copying its points would route NaN.
func TestStreamingBuildMatchesBuckets(t *testing.T) {
	dom := geom.MustDomain(-10, -40, 110, 80)
	plan, err := NewPlan(dom, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := spillTestPoints(15000, plan, 9)

	refU, err := bucketsUniform(pts, plan, 1, core.UGOptions{}, noise.NewSource(21))
	if err != nil {
		t.Fatal(err)
	}
	wantU := shardedBytes(t, refU)
	refA, err := bucketsAdaptive(pts, plan, 1, core.AGOptions{}, noise.NewSource(22))
	if err != nil {
		t.Fatal(err)
	}
	wantA := shardedBytes(t, refA)

	gotU, err := BuildUniform(pts, plan, 1, core.UGOptions{}, Options{}, noise.NewSource(21))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardedBytes(t, gotU), wantU) {
		t.Error("in-memory uniform mosaic differs from bucket build")
	}
	gotA, err := BuildAdaptive(pts, plan, 1, core.AGOptions{}, Options{}, noise.NewSource(22))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardedBytes(t, gotA), wantA) {
		t.Error("in-memory adaptive mosaic differs from bucket build")
	}

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
// preserving stream order within each tile, across spill sweeps and
// without any, for a slice source and for one that reuses and poisons
// its chunk buffer.
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
	for _, budget := range []int{128, noSpill} { // many sweeps, and none
		for name, seq := range map[string]geom.PointSeq{"slice": geom.SlicePoints(pts), "reused": geomtest.ReusedChunks(pts)} {
			sp, err := partitionSpill(seq, plan, budget)
			if err != nil {
				t.Fatalf("budget=%d %s: %v", budget, name, err)
			}
			for i := 0; i < plan.NumTiles(); i++ {
				got := tilePoints(t, sp, i)
				if len(got) != len(want[i]) {
					t.Fatalf("budget=%d %s tile %d: %d points, want %d", budget, name, i, len(got), len(want[i]))
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Fatalf("budget=%d %s tile %d point %d: %v, want %v (order or routing broken)", budget, name, i, j, got[j], want[i][j])
					}
				}
				// Spools must replay identically on a second pass (AG re-reads).
				if n := len(tilePoints(t, sp, i)); n != len(want[i]) {
					t.Fatalf("budget=%d %s tile %d: replay saw %d points, want %d", budget, name, i, n, len(want[i]))
				}
				// A tile that never spilled is handed on in memory, so
				// its builder scans it in place instead of gathering it.
				if budget == noSpill && !geom.InMemory(sp.tileSeq(i)) {
					t.Errorf("budget=%d %s tile %d: never spilled but not in memory", budget, name, i)
				}
			}
			if err := sp.Close(); err != nil {
				t.Fatalf("budget=%d %s: close: %v", budget, name, err)
			}
		}
	}
}

// A streaming sharded build whose points fit the spill budget never
// touches the file system, so it must succeed — with the bucket
// build's bytes — when the temp directory is unusable; one that has to
// spill must report the directory failure. An in-memory build has no
// spill budget, so it never spills, whatever MaxBufferedPoints says.
func TestStreamingBuildWithoutTempDir(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	plan, err := NewPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	pts := []geom.Point{{X: 1, Y: 1}, {X: 6, Y: 2}, {X: 7, Y: 8}}
	ref, err := bucketsAdaptive(pts, plan, 1, core.AGOptions{}, noise.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildAdaptiveSeq(geom.SlicePoints(pts), plan, 1, core.AGOptions{}, Options{}, noise.NewSource(5))
	if err != nil {
		t.Fatalf("build that never spills: %v", err)
	}
	if !bytes.Equal(shardedBytes(t, got), shardedBytes(t, ref)) {
		t.Error("streaming mosaic differs from the bucket build")
	}
	got, err = BuildAdaptive(pts, plan, 1, core.AGOptions{}, Options{MaxBufferedPoints: 1}, noise.NewSource(5))
	if err != nil {
		t.Fatalf("in-memory build: %v", err)
	}
	if !bytes.Equal(shardedBytes(t, got), shardedBytes(t, ref)) {
		t.Error("in-memory mosaic differs from the bucket build")
	}
	_, err = BuildAdaptiveSeq(geom.SlicePoints(pts), plan, 1, core.AGOptions{}, Options{MaxBufferedPoints: 1}, noise.NewSource(5))
	if err == nil || !strings.Contains(err.Error(), "spill dir") {
		t.Errorf("build that must spill: error = %v, want a spill dir error", err)
	}
}
