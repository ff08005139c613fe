package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

const benchIngestPoints = 1 << 20

func benchIngestData(b *testing.B) ([]geom.Point, geom.Domain) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	dom := geom.MustDomain(0, 0, 100, 100)
	pts := make([]geom.Point, benchIngestPoints)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts, dom
}

func benchIngestCSV(b *testing.B, pts []geom.Point) geom.PointSeq {
	b.Helper()
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
	return datasets.CSVFileSeq{Path: path}
}

// BenchmarkAGBuildFused measures full AG build throughput at 1M points
// in points/sec, sequential vs parallel, in-memory vs CSV. The slice is
// scanned in place; the CSV file is gathered by one scan and the later
// passes run over memory. Every variant releases bit-identical synopses
// per seed; only the wall clock moves.
func BenchmarkAGBuildFused(b *testing.B) {
	pts, dom := benchIngestData(b)
	sources := []struct {
		name string
		seq  geom.PointSeq
	}{
		{"mem", geom.SlicePoints(pts)},
		{"csv", benchIngestCSV(b, pts)},
	}
	for _, src := range sources {
		for _, workers := range []int{1, 0} {
			name := src.name + "/seq"
			if workers != 1 {
				name = src.name + "/par"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := BuildAdaptiveGridSeq(src.seq, dom, 1, AGOptions{Workers: workers}, noise.NewSource(int64(i))); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(benchIngestPoints)*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
			})
		}
	}
}

// BenchmarkUGBuildWorkers is the UG counterpart: a two-scan (auto-size)
// build, sequential vs parallel, in-memory vs CSV.
func BenchmarkUGBuildWorkers(b *testing.B) {
	pts, dom := benchIngestData(b)
	sources := []struct {
		name string
		seq  geom.PointSeq
	}{
		{"mem", geom.SlicePoints(pts)},
		{"csv", benchIngestCSV(b, pts)},
	}
	for _, src := range sources {
		for _, workers := range []int{1, 0} {
			name := src.name + "/seq"
			if workers != 1 {
				name = src.name + "/par"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := BuildUniformGridSeq(src.seq, dom, 1, UGOptions{Workers: workers}, noise.NewSource(int64(i))); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(benchIngestPoints)*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
			})
		}
	}
}
