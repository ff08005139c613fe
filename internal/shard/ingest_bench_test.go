package shard

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

const benchIngestPoints = 1 << 20

func benchIngestCSV(b *testing.B) (geom.PointSeq, geom.Domain) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	dom := geom.MustDomain(0, 0, 100, 100)
	pts := make([]geom.Point, benchIngestPoints)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	path := filepath.Join(b.TempDir(), "bench.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := datasets.WriteCSV(f, pts); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return datasets.CSVFileSeq{Path: path}, dom
}

// filterSeq replays the pre-engine streaming shard build's data access:
// one filtered scan of the raw source per tile (kx*ky scans total).
// It exists only as the benchmark baseline for the one-scan build.
type filterSeq struct {
	seq  geom.PointSeq
	plan Plan
	tile int
}

func (t filterSeq) ForEachChunk(fn func([]geom.Point) error) error {
	var kept []geom.Point
	return t.seq.ForEachChunk(func(chunk []geom.Point) error {
		kept = kept[:0]
		for _, p := range chunk {
			if t.plan.TileIndex(p) == t.tile {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			return nil
		}
		return fn(kept)
	})
}

// BenchmarkShardedStreamBuild measures the streaming sharded UG build
// from a 1M-point CSV in points/sec. "onescan" is the spill-partition
// engine (cost flat in the tile count); "rescan" replays the legacy
// one-filtered-scan-per-tile access pattern, whose cost grows with
// kx*ky.
func BenchmarkShardedStreamBuild(b *testing.B) {
	seq, dom := benchIngestCSV(b)
	for _, k := range []int{2, 4, 8} {
		plan, err := NewPlan(dom, k, k)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.UGOptions{GridSize: 64 / k}
		b.Run(fmt.Sprintf("onescan/%dx%d", k, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildUniformSeq(seq, plan, 1, opts, Options{}, noise.NewSource(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchIngestPoints)*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
		})
		b.Run(fmt.Sprintf("rescan/%dx%d", k, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for tile := 0; tile < plan.NumTiles(); tile++ {
					if _, err := core.BuildUniformGridSeq(filterSeq{seq, plan, tile}, plan.Tile(tile), 1, opts, noise.NewSource(int64(i))); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(benchIngestPoints)*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
		})
	}
}
