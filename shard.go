package dpgrid

import (
	"context"
	"fmt"

	"github.com/dpgrid/dpgrid/internal/shard"
)

// Geo-sharded synopses: a sharded release partitions the domain into a
// KxL mosaic of tiles and carries one full-epsilon synopsis per tile.
// Because spatially disjoint tiles see disjoint data, parallel
// composition makes the whole mosaic eps-differentially private even
// though every tile spends the full eps — sharding costs no per-tile
// accuracy while unlocking parallel builds, per-tile refresh, and
// domains far beyond the single-grid cell cap. See internal/shard and
// the README's "Scaling out with shards" section.

// ShardPlan partitions a Domain into a KxL mosaic of equal-size tiles.
// Every in-domain point belongs to exactly one tile (boundary points go
// to the higher-index tile), which is the disjointness the parallel-
// composition argument needs.
type ShardPlan = shard.Plan

// NewShardPlan returns the plan splitting dom into kx x ky tiles.
func NewShardPlan(dom Domain, kx, ky int) (ShardPlan, error) {
	return shard.NewPlan(dom, kx, ky)
}

// ShardOptions configures the shard-level build fan-out; the zero value
// builds shards on one worker per CPU.
type ShardOptions = shard.Options

// Sharded is a geo-sharded release: one per-tile synopsis per shard of
// a ShardPlan. It implements Synopsis and ShardRouter; a query is
// routed to only the overlapping shards, with fully-covered shards
// short-circuiting through their TotalEstimate.
type Sharded = shard.Sharded

// ShardQueryStats reports the routing observations of a single query
// against a sharded release: how many shards the fan-out visited. It is
// the serving path's instrumentation hook — dpserve aggregates these
// into its /metrics families.
type ShardQueryStats = shard.QueryStats

// ShardContextObserver is implemented by sharded releases (Sharded)
// whose queries report routing observations and honor context
// cancellation: QueryStatsCtx checks ctx between shards and abandons
// the walk with the context's error, so a serving layer whose client
// has gone away (request timeout, dropped connection) stops burning CPU
// on wide mosaics. A completed walk returns the same estimate as Query,
// bit for bit.
type ShardContextObserver interface {
	Synopsis
	// QueryStatsCtx estimates the number of data points in r and
	// reports the fan-out observations of the query.
	QueryStatsCtx(ctx context.Context, r Rect) (float64, ShardQueryStats, error)
}

// QueryStatsCtx answers r against s and reports the query's routing
// observations; it is the serving path's one query entry point. A
// ShardContextObserver answers through its own cancellable fan-out; any
// other synopsis answers as one uncancellable shard after an up-front
// ctx check. A completed query returns the same estimate as s.Query(r),
// bit for bit.
func QueryStatsCtx(ctx context.Context, s Synopsis, r Rect) (float64, ShardQueryStats, error) {
	if o, ok := s.(ShardContextObserver); ok {
		return o.QueryStatsCtx(ctx, r)
	}
	if err := ctx.Err(); err != nil {
		return 0, ShardQueryStats{}, err
	}
	return s.Query(r), ShardQueryStats{Shards: 1}, nil
}

// ShardRouter is the tile-level routing surface of a sharded release —
// what a multi-node placement layer needs to scatter a query across
// backends and gather the partial answers. Plan exposes the mosaic
// geometry (ShardPlan.OverlappingTiles names the tiles a rectangle
// fans out to), and ShardAnswer returns one tile's partial answer:
// summing ShardAnswer over a rectangle's overlapping tiles in
// ascending index order reproduces Query bit for bit, no matter how
// the tiles are partitioned across nodes. Sharded implements it.
type ShardRouter interface {
	Synopsis
	// Plan returns the mosaic plan.
	Plan() ShardPlan
	// NumShards returns the number of tiles in the release.
	NumShards() int
	// ShardAnswer returns tile i's partial answer to r — exactly the
	// term Query adds for that tile.
	ShardAnswer(i int, r Rect) float64
}

// BuildShardedUniformGrid builds one UG synopsis per tile of plan, each
// under the full eps via parallel composition. For a fixed seed and
// plan the release is bit-identical for every ShardOptions.Workers
// value (shard i draws from the noise sub-stream keyed by its index).
func BuildShardedUniformGrid(points []Point, plan ShardPlan, eps float64, grid UGOptions, opts ShardOptions, src NoiseSource) (*Sharded, error) {
	return shard.BuildUniform(points, plan, eps, grid, opts, src)
}

// BuildShardedUniformGridSeq is BuildShardedUniformGrid over a
// streaming point source: one scan of the stream routes every point to
// its tile, spilling to temp files past ShardOptions.MaxBufferedPoints,
// and each shard builds from its own tile's points.
func BuildShardedUniformGridSeq(seq PointSeq, plan ShardPlan, eps float64, grid UGOptions, opts ShardOptions, src NoiseSource) (*Sharded, error) {
	return shard.BuildUniformSeq(seq, plan, eps, grid, opts, src)
}

// BuildShardedAdaptiveGrid builds one AG synopsis per tile of plan,
// each under the full eps via parallel composition, with the same
// determinism guarantee as BuildShardedUniformGrid.
func BuildShardedAdaptiveGrid(points []Point, plan ShardPlan, eps float64, grid AGOptions, opts ShardOptions, src NoiseSource) (*Sharded, error) {
	return shard.BuildAdaptive(points, plan, eps, grid, opts, src)
}

// BuildShardedAdaptiveGridSeq is BuildShardedAdaptiveGrid over a
// streaming point source.
func BuildShardedAdaptiveGridSeq(seq PointSeq, plan ShardPlan, eps float64, grid AGOptions, opts ShardOptions, src NoiseSource) (*Sharded, error) {
	return shard.BuildAdaptiveSeq(seq, plan, eps, grid, opts, src)
}

// AssembleSharded constructs a sharded release from pre-built per-tile
// synopses — the path for mosaics whose tiles are built by any
// embeddable synopsis kind (hierarchies, kd-trees, privlets, or grids
// built elsewhere). Every tile must be one released synopsis covering
// exactly its plan tile under the release epsilon, and all tiles must
// share one kind; parallel composition over the disjoint tiles then
// makes the assembled release eps-differentially private as a whole.
// The result serializes like any built release (WriteSynopsis) and its
// manifests load like any other.
func AssembleSharded(plan ShardPlan, eps float64, tiles []Synopsis) (*Sharded, error) {
	st := make([]shard.Synopsis, len(tiles))
	for i, t := range tiles {
		s, ok := t.(shard.Synopsis)
		if !ok {
			return nil, fmt.Errorf("dpgrid: tile %d of type %T lacks the per-tile synopsis interface (Query/TotalEstimate/Epsilon/Domain/ContainerKind/AppendBinary/WriteTo)", i, t)
		}
		st[i] = s
	}
	return shard.Assemble(plan, eps, st)
}
