// Benchmarks: one per table/figure of the paper (running the same harness
// as cmd/dpbench at reduced scale so `go test -bench=.` stays tractable),
// plus construction and query micro-benchmarks for the released methods.
//
// Full-scale regeneration of the paper's numbers is cmd/dpbench's job
// (`go run ./cmd/dpbench -exp all`); the orderings those runs must show
// are asserted by internal/eval/shape_test.go.
package dpgrid

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"github.com/dpgrid/dpgrid/internal/eval"
)

// benchOpts runs the harness at 2% of the paper's N with 25 queries per
// size class, keeping per-iteration cost low while exercising every code
// path of the corresponding experiment.
func benchOpts() eval.ExpOptions {
	return eval.ExpOptions{Scale: 0.02, Queries: 25, Seed: 5}
}

// BenchmarkTableII regenerates Table II (suggested vs observed-best grid
// sizes for UG and AG on all four datasets, both epsilon values).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableII(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d, want 4", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (Kst, Khy vs UG size sweep); one
// sub-benchmark per dataset at eps = 1 (the paper's right-hand panels).
func BenchmarkFigure2(b *testing.B) {
	for _, ds := range []string{"road", "checkin", "landmark", "storage"} {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Figure2(ds, 1, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3 regenerates Figure 3 (hierarchy/wavelet effect over a
// fixed base grid) on the paper's two datasets.
func BenchmarkFigure3(b *testing.B) {
	for _, ds := range []string{"checkin", "landmark"} {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Figure3(ds, 1, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 regenerates the three Figure 4 panel families (AG
// parameter sensitivity) on checkin.
func BenchmarkFigure4(b *testing.B) {
	panels := []struct {
		name  string
		panel eval.Figure4Panel
	}{
		{"compare", eval.Fig4Compare},
		{"varyM1", eval.Fig4VaryM1},
		{"varyAlphaC2", eval.Fig4VaryAlphaC2},
	}
	for _, p := range panels {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Figure4("checkin", 1, p.panel, 0, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure5 regenerates the final relative-error comparison on all
// four datasets (Khy, U-best, W-best, A-best, U-sugg, A-sugg).
func BenchmarkFigure5(b *testing.B) {
	for _, ds := range []string{"road", "checkin", "landmark", "storage"} {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Figure5(ds, 1, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6 is the Figure 5 run read through absolute-error
// candlesticks (the paper's Figure 6), including rendering.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Figure5("landmark", 1, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		res.WriteAbsTable(io.Discard, "Figure 6")
	}
}

// BenchmarkDimensionalityAblation regenerates the section IV-C analysis
// (border fractions and measured 2D hierarchy gain).
func BenchmarkDimensionalityAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Dimensionality(1, eval.ExpOptions{Scale: 0.01, Queries: 10, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchyGainByDimension measures hierarchy benefit in 1/2/3
// dimensions (the paper's section IV-C prediction, implemented).
func BenchmarkHierarchyGainByDimension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.HierarchyGainByDimension(1, eval.ExpOptions{Scale: 0.02, Queries: 30, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationC sweeps the Guideline 1 constant (the design-choice
// ablation of internal/eval/ablation.go).
func BenchmarkAblationC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationC("landmark", 1, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationComponents isolates constrained inference and budget
// allocation contributions in AG and KD-hybrid.
func BenchmarkAblationComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.AblationComponents("landmark", 1, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- construction / query micro-benchmarks ----

func benchPoints(n int) ([]Point, Domain) {
	rng := rand.New(rand.NewSource(1))
	dom, _ := NewDomain(0, 0, 100, 100)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts, dom
}

func BenchmarkBuildUG100k(b *testing.B) {
	pts, dom := benchPoints(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildUniformGrid(pts, dom, 1, UGOptions{}, NewNoiseSource(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildAG100k(b *testing.B) {
	pts, dom := benchPoints(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildKDHybrid100k(b *testing.B) {
	pts, dom := benchPoints(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildKDTree(pts, dom, 1, KDTreeOptions{Method: KDHybrid}, NewNoiseSource(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildPrivlet100k(b *testing.B) {
	pts, dom := benchPoints(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPrivlet(pts, dom, 1, PrivletOptions{GridSize: 100}, NewNoiseSource(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryUG(b *testing.B) {
	pts, dom := benchPoints(100_000)
	syn, err := BuildUniformGrid(pts, dom, 1, UGOptions{}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	r := NewRect(13.7, 21.1, 77.3, 88.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = syn.Query(r)
	}
}

func BenchmarkQueryAG(b *testing.B) {
	pts, dom := benchPoints(100_000)
	syn, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	r := NewRect(13.7, 21.1, 77.3, 88.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = syn.Query(r)
	}
}

func BenchmarkQueryKDHybrid(b *testing.B) {
	pts, dom := benchPoints(100_000)
	syn, err := BuildKDTree(pts, dom, 1, KDTreeOptions{Method: KDHybrid}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	r := NewRect(13.7, 21.1, 77.3, 88.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = syn.Query(r)
	}
}

func BenchmarkBuildHierarchy100k(b *testing.B) {
	pts, dom := benchPoints(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildHierarchy(pts, dom, 1, HierarchyOptions{GridSize: 128, Branching: 4, Depth: 3}, NewNoiseSource(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- parallel build / batch query benchmarks ----
//
// BenchmarkBuildAGWorkers and BenchmarkQueryAGBatch track the speedup of
// the cell-parallel AG construction and the batch query fan-out against
// their sequential counterparts; future PRs should keep the parallel
// variants ahead.

func BenchmarkBuildAGWorkers(b *testing.B) {
	pts, dom := benchPoints(1_000_000)
	for _, workers := range []int{1, 2, 4, 0} {
		name := "gomaxprocs"
		if workers > 0 {
			name = strconv.Itoa(workers)
		}
		b.Run(name, func(b *testing.B) {
			opts := AGOptions{Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := BuildAdaptiveGrid(pts, dom, 1, opts, NewNoiseSource(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQueryAGBatch(b *testing.B) {
	pts, dom := benchPoints(100_000)
	syn, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	rects := batchTestRects(10_000, 3)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range rects {
				_ = syn.Query(r)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = QueryBatch(syn, rects, 0)
		}
	})
}

func BenchmarkQueryUGBatch(b *testing.B) {
	pts, dom := benchPoints(100_000)
	syn, err := BuildUniformGrid(pts, dom, 1, UGOptions{}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	rects := batchTestRects(10_000, 3)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range rects {
				_ = syn.Query(r)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = QueryBatch(syn, rects, 0)
		}
	})
}

func BenchmarkSynthesize100k(b *testing.B) {
	pts, dom := benchPoints(100_000)
	syn, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := NewNoiseSource(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := syn.Synthesize(100_000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeAG(b *testing.B) {
	pts, dom := benchPoints(100_000)
	syn, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteSynopsis(io.Discard, syn); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- monolithic vs geo-sharded benchmarks ----
//
// Build and query-batch comparisons at matched total first-level cell
// counts (mono M1 = k * sharded per-tile M1, so both releases hold the
// same number of level-1 cells). The sub-benchmark names record the
// matched configuration so bench logs show where sharding crosses over.

func BenchmarkBuildAGMonoVsSharded(b *testing.B) {
	pts, dom := benchPoints(1_000_000)
	// 64x64 level-1 cells total in every variant.
	b.Run("mono-m1=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 64}, NewNoiseSource(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{2, 4, 8} {
		plan, err := NewShardPlan(dom, k, k)
		if err != nil {
			b.Fatal(err)
		}
		opts := AGOptions{M1: 64 / k}
		b.Run(fmt.Sprintf("sharded-%dx%d-m1=%d", k, k, 64/k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildShardedAdaptiveGrid(pts, plan, 1, opts, ShardOptions{}, NewNoiseSource(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQueryAGBatchMonoVsSharded(b *testing.B) {
	pts, dom := benchPoints(200_000)
	rects := batchTestRects(10_000, 3)
	mono, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 64}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mono-m1=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = QueryBatch(mono, rects, 0)
		}
	})
	for _, k := range []int{4, 8} {
		plan, err := NewShardPlan(dom, k, k)
		if err != nil {
			b.Fatal(err)
		}
		sharded, err := BuildShardedAdaptiveGrid(pts, plan, 1, AGOptions{M1: 64 / k}, ShardOptions{}, NewNoiseSource(1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("sharded-%dx%d-m1=%d", k, k, 64/k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = QueryBatch(sharded, rects, 0)
			}
		})
	}
}

func BenchmarkSerializeSharded(b *testing.B) {
	pts, dom := benchPoints(100_000)
	plan, err := NewShardPlan(dom, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	syn, err := BuildShardedAdaptiveGrid(pts, plan, 1, AGOptions{M1: 16}, ShardOptions{}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteSynopsis(io.Discard, syn); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- synopsis codec benchmarks ----
//
// The JSON dump vs the dpgridv2 container for a sharded manifest at
// matched cell counts (the same release encoded both ways); only the
// container decodes. The decode family is the serving daemon's
// cold-start path. `binary-eager` is ReadSynopsis
// (read the bytes into a buffer of its own, then decode); `view` is
// what dpserve pays at startup, LoadSynopsis over bytes it already
// holds (validate everything; every tile's tables alias the bytes);
// `view-first-query` adds the first single-tile hit.
// Each sub-benchmark reports the encoded size as file-bytes.

func benchShardedRelease(b *testing.B) *Sharded {
	b.Helper()
	pts, dom := benchPoints(200_000)
	plan, err := NewShardPlan(dom, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	syn, err := BuildShardedAdaptiveGrid(pts, plan, 1, AGOptions{M1: 16}, ShardOptions{}, NewNoiseSource(1))
	if err != nil {
		b.Fatal(err)
	}
	return syn
}

func benchShardedFiles(b *testing.B, syn *Sharded) (jsonData, binData []byte) {
	b.Helper()
	var jsonBuf, binBuf bytes.Buffer
	if err := WriteSynopsisFormat(&jsonBuf, syn, FormatJSON); err != nil {
		b.Fatal(err)
	}
	if err := WriteSynopsis(&binBuf, syn); err != nil {
		b.Fatal(err)
	}
	return jsonBuf.Bytes(), binBuf.Bytes()
}

func BenchmarkEncodeSharded(b *testing.B) {
	syn := benchShardedRelease(b)
	jsonData, binData := benchShardedFiles(b, syn)
	b.Run("json", func(b *testing.B) {
		b.ReportMetric(float64(len(jsonData)), "file-bytes")
		for i := 0; i < b.N; i++ {
			if err := WriteSynopsisFormat(io.Discard, syn, FormatJSON); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportMetric(float64(len(binData)), "file-bytes")
		for i := 0; i < b.N; i++ {
			if err := WriteSynopsis(io.Discard, syn); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeSharded(b *testing.B) {
	_, binData := benchShardedFiles(b, benchShardedRelease(b))
	firstTile := NewRect(1, 1, 20, 20)
	b.Run("binary-eager", func(b *testing.B) {
		b.ReportMetric(float64(len(binData)), "file-bytes")
		for i := 0; i < b.N; i++ {
			if _, err := ReadSynopsis(bytes.NewReader(binData)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-view", func(b *testing.B) {
		b.ReportMetric(float64(len(binData)), "file-bytes")
		for i := 0; i < b.N; i++ {
			if _, err := LoadSynopsis(binData); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-view-first-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			syn, err := LoadSynopsis(binData)
			if err != nil {
				b.Fatal(err)
			}
			_ = syn.Query(firstTile)
		}
	})
}
