// Package dpgrid publishes differentially private synopses of
// two-dimensional (geospatial) point datasets, implementing the methods
// of Qardaji, Yang, Li: "Differentially Private Grids for Geospatial
// Data" (ICDE 2013), and grows them into a production-shaped serving
// stack: deterministic parallel construction, a compact binary release
// format that loads in place, geo-sharded mosaics, and an HTTP
// serving daemon with caching and observability (cmd/dpserve).
//
// # Methods
//
// The two primary methods are:
//
//   - UniformGrid (UG): an m x m equi-width grid of Laplace-noised cell
//     counts, with the grid size chosen by the paper's Guideline 1
//     (m = sqrt(N*eps/c), c = 10) unless overridden.
//
//   - AdaptiveGrid (AG): a coarse first-level grid whose cells are each
//     re-partitioned adaptively based on their noisy counts (Guideline 2),
//     with constrained inference reconciling the two levels. AG
//     consistently outperforms UG and the recursive-partitioning state of
//     the art in the paper's evaluation — and in this reproduction.
//
// The package also exposes the baselines the paper compares against
// (KD-standard/KD-hybrid trees, Privlet wavelets, grid hierarchies) so
// downstream users can run their own comparisons, plus Evaluate and
// RandomQueries for measuring error against ground truth.
//
// A synopsis answers axis-aligned rectangular count queries: cells fully
// inside the query contribute their noisy counts; partially covered cells
// contribute proportionally to the overlapped area (the uniformity
// assumption). Building a synopsis consumes the entire epsilon it is
// given; answering any number of queries afterwards consumes nothing
// (post-processing).
//
// # What epsilon covers
//
// Two limits apply to every release, and neither is addressed by this
// package yet. First, a neighbouring dataset differs in one point, so
// the guarantee is point-level: check-in data has many points per user,
// and user-level protection would need contribution bounding, which is
// not built here. Second, structure sizes are computed from the exact
// point count, spend no epsilon, and are released in the header: UG's m,
// AG's m1, the kd-tree depth, the hierarchy and privlet sizes, the
// method dpgrid -method auto picks, and per-tile sizes. Two datasets
// that differ in one point can release different sizes (UG on 1102
// and 1103 uniform points gives m = 10 and m = 11), so a release is
// not epsilon-DP in those fields. The README's "What ε covers" section
// has the details.
//
// # Quick start
//
//	dom, _ := dpgrid.NewDomain(-125, 30, -100, 50)
//	syn, err := dpgrid.BuildAdaptiveGrid(points, dom, 1.0, dpgrid.AGOptions{}, dpgrid.NewNoiseSource(42))
//	if err != nil { ... }
//	estimate := syn.Query(dpgrid.NewRect(-123, 45, -120, 48))
//
// For reproducible experiments pass a seeded NoiseSource; for deployment
// implement NoiseSource over crypto/rand.
//
// # Determinism and parallelism
//
// NewNoiseSource returns a ForkableNoiseSource whose independent
// sub-streams are keyed by index. Parallel construction (AGOptions.Workers,
// ShardOptions.Workers) draws each cell's or shard's noise from the
// sub-stream keyed by its index, so for a fixed seed the released
// synopsis is bit-identical for every worker count. Batches of queries
// fan out across a worker pool with QueryBatch(s, rects, workers), the
// one batch entry point for every Synopsis.
//
// # Serialization
//
// A release serializes as the dpgridv2 binary container (WriteSynopsis,
// WriteSynopsisFile; see docs/FORMAT.md), the one format that loads.
// WriteSynopsisFormat can also write a versioned JSON dump of the same
// artifact for reading by eye; nothing loads it back. File writes are
// atomic. Every load (ReadSynopsis, LoadSynopsis, LoadSynopsisFile,
// MapSynopsisFile) decodes to the ordinary synopsis types, whose float
// tables alias the container's 8-byte-aligned sections on little-endian
// hosts, so queries answer straight from the file bytes.
//
// # Scaling out
//
// A ShardPlan partitions the domain into a KxL mosaic and the
// BuildSharded* constructors release one full-epsilon synopsis per tile
// — private by parallel composition over disjoint tiles. Queries route
// to overlapping shards only, and sharded releases report per-query
// routing observations through QueryStatsCtx — one cancellable query
// entry point for every Synopsis, which is how the serving daemon
// answers and feeds its metrics.
//
// See docs/ARCHITECTURE.md for the package map and the serving-path
// narrative.
package dpgrid
