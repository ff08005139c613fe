// Package shard scales the paper's grids past a single monolithic
// release by partitioning the domain into a KxL mosaic of tiles and
// building one per-tile synopsis per shard.
//
// The privacy argument is parallel composition: spatially disjoint
// tiles see disjoint subsets of the data, so releasing every tile's
// synopsis under the full epsilon is still eps-differentially private
// overall — a neighboring dataset differs in one point, and that point
// lands in exactly one tile (the same property spatial decompositions
// such as Cormode et al.'s private spatial decompositions rely on).
// Sharding therefore costs no per-tile accuracy while unlocking
// parallel builds, per-tile refresh, and horizontal serving, and it
// sidesteps the 2^28-cell ceiling of a single grid allocation.
//
// Construction is deterministic: each shard draws from the noise
// sub-stream keyed by its shard index (noise.Forkable), so for a fixed
// seed and plan the released mosaic is bit-identical for every Workers
// setting, matching the guarantee of the cell-parallel AG builder.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pool"
)

// MaxTiles caps a plan's tile count. Each tile carries at least one
// synopsis allocation and one manifest entry, so the cap keeps a
// corrupt or hostile manifest from demanding absurd allocations while
// leaving room for planet-scale mosaics (2^20 tiles of 2^28 cells each).
const MaxTiles = 1 << 20

// Plan partitions a domain into a kx x ky mosaic of equal-size tiles.
// Tiles are indexed row-major (index = iy*kx + ix) and tile boundaries
// follow the same edge convention as grid cells: a point on an interior
// tile edge belongs to the higher-index tile, and the domain's
// MaxX/MaxY edges are clamped into the last column/row, so every
// in-domain point belongs to exactly one tile — the disjointness that
// parallel composition needs.
//
// The zero Plan is invalid; use NewPlan.
type Plan struct {
	dom    geom.Domain
	kx, ky int
	w, h   float64 // tile extent, dom.CellSize(kx, ky), computed once
}

// NewPlan returns the plan splitting dom into kx x ky tiles.
func NewPlan(dom geom.Domain, kx, ky int) (Plan, error) {
	if !dom.IsValid() || dom.Width() <= 0 || dom.Height() <= 0 {
		return Plan{}, fmt.Errorf("shard: invalid domain %v: need finite bounds with positive extent", dom.Rect)
	}
	if kx < 1 || ky < 1 {
		return Plan{}, fmt.Errorf("shard: tile counts must be positive, got %dx%d", kx, ky)
	}
	// Per-axis bound first so the product cannot overflow int64 on
	// adversarial manifest dimensions.
	if kx > MaxTiles || ky > MaxTiles || int64(kx)*int64(ky) > MaxTiles {
		return Plan{}, fmt.Errorf("shard: %dx%d tiles exceeds the %d-tile cap", kx, ky, MaxTiles)
	}
	w, h := dom.CellSize(kx, ky)
	return Plan{dom: dom, kx: kx, ky: ky, w: w, h: h}, nil
}

// Domain returns the plan's full domain.
func (p Plan) Domain() geom.Domain { return p.dom }

// Dims returns the mosaic dimensions (columns, rows).
func (p Plan) Dims() (kx, ky int) { return p.kx, p.ky }

// NumTiles returns kx*ky.
func (p Plan) NumTiles() int { return p.kx * p.ky }

// Tile returns the domain of tile i (row-major). Outer tile edges are
// snapped to the domain bounds: min + k*w can round below MaxX, and a
// last-column tile that excluded the domain's own edge would drop
// points sitting on it. It panics on an out-of-range index, mirroring
// slice semantics.
func (p Plan) Tile(i int) geom.Domain {
	if i < 0 || i >= p.NumTiles() {
		panic(fmt.Sprintf("shard: tile index %d out of range [0,%d)", i, p.NumTiles()))
	}
	ix, iy := i%p.kx, i/p.kx
	r := p.dom.CellRect(ix, iy, p.kx, p.ky)
	if ix == p.kx-1 {
		r.MaxX = p.dom.MaxX
	}
	if iy == p.ky-1 {
		r.MaxY = p.dom.MaxY
	}
	return geom.Domain{Rect: r}
}

// TileIndex returns the index of the tile owning pt, or -1 when pt lies
// outside the domain. Every in-domain point maps to exactly one tile
// whose Tile rectangle contains it — the per-tile builders silently
// skip points outside their domain, so a point filed under a tile that
// excludes it would vanish from the release.
func (p Plan) TileIndex(pt geom.Point) int {
	if !p.dom.Contains(pt) {
		return -1
	}
	ix, iy := p.dom.CellIndexAt(pt, p.w, p.h, p.kx, p.ky)
	ix = snapIndex(pt.X, p.dom.MinX, p.w, ix, p.kx)
	iy = snapIndex(pt.Y, p.dom.MinY, p.h, iy, p.ky)
	return iy*p.kx + ix
}

// snapIndex nudges a division-derived cell index until the cell's
// actual edge coordinates contain v: int((v-min)/w) and min + i*w can
// round across a tile boundary in opposite directions, assigning v to
// a tile whose rectangle excludes it by an ulp. Edge points keep the
// grid convention — a point on an interior edge belongs to the
// higher-index tile. w is the tile extent along the axis.
func snapIndex(v, min, w float64, i, k int) int {
	for i > 0 && v < min+float64(i)*w {
		i--
	}
	for i+1 < k && v >= min+float64(i+1)*w {
		i++
	}
	return i
}

// ParseDims parses a KxL mosaic spec such as "4x4" — the shared parser
// behind the dpgrid -shards and dpgen -tiles flags.
func ParseDims(s string) (kx, ky int, err error) {
	xs, ys, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, fmt.Errorf("bad tile spec %q: want KxL, e.g. 4x4", s)
	}
	kx, errX := strconv.Atoi(xs)
	ky, errY := strconv.Atoi(ys)
	if errX != nil || errY != nil || kx < 1 || ky < 1 {
		return 0, 0, fmt.Errorf("bad tile spec %q: want two positive integers as KxL", s)
	}
	return kx, ky, nil
}

// Equal reports whether two plans describe the same mosaic.
func (p Plan) Equal(q Plan) bool {
	return p.dom == q.dom && p.kx == q.kx && p.ky == q.ky
}

// OverlappingTiles returns the row-major indices of every tile the
// query rectangle overlaps, in ascending order — exactly the tiles
// routeQuery visits, in the order it visits them. A rectangle outside
// the domain overlaps nothing and returns nil. This is the routing
// primitive a multi-node placement layer shares with the in-process
// fan-out: a router that partitions these indices across backends and
// sums the per-tile partial answers in this order reproduces the
// single-process Query bit for bit.
func (p Plan) OverlappingTiles(r geom.Rect) []int {
	if p.validate() != nil {
		return nil
	}
	clipped, ok := p.dom.Clip(r)
	if !ok {
		return nil
	}
	bx0, by0, bx1, by1 := p.tileRange(clipped)
	out := make([]int, 0, (bx1-bx0+1)*(by1-by0+1))
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			out = append(out, by*p.kx+bx)
		}
	}
	return out
}

// tileRange returns the inclusive tile-coordinate range overlapped by r,
// which must already be clipped to the plan's domain.
func (p Plan) tileRange(r geom.Rect) (bx0, by0, bx1, by1 int) {
	bx0 = clampInt(int(math.Floor((r.MinX-p.dom.MinX)/p.w)), 0, p.kx-1)
	bx1 = clampInt(int(math.Floor((r.MaxX-p.dom.MinX)/p.w)), 0, p.kx-1)
	by0 = clampInt(int(math.Floor((r.MinY-p.dom.MinY)/p.h)), 0, p.ky-1)
	by1 = clampInt(int(math.Floor((r.MaxY-p.dom.MinY)/p.h)), 0, p.ky-1)
	return bx0, by0, bx1, by1
}

func (p Plan) validate() error {
	if p.kx < 1 || p.ky < 1 {
		return errors.New("shard: zero or invalid Plan (use NewPlan)")
	}
	return nil
}

// Options configures the shard-level build fan-out.
type Options struct {
	// Workers bounds the goroutines building shards concurrently. 0
	// means one worker per CPU; 1 forces the sequential path. Parallel
	// shard builds require a noise.Forkable source (noise.NewSource
	// qualifies): shard i draws from the Forkable sub-stream keyed by
	// its index, so for a given seed the released mosaic is
	// bit-identical for every Workers value. With a non-Forkable
	// source, Workers > 1 is an error and the zero value falls back to
	// the single-stream sequential path.
	Workers int
	// MaxBufferedPoints caps the aggregate number of points the
	// one-scan streaming partitioner (BuildUniformSeq /
	// BuildAdaptiveSeq) holds in memory before sweeping every tile's
	// buffer to its bounded spill file. 0 means DefaultSpillPoints.
	// BuildUniform and BuildAdaptive ignore it: their points are
	// already in memory, so they never spill.
	// Smaller trades memory for more appending file I/O; the released
	// mosaic is bit-identical for every value.
	MaxBufferedPoints int
}

// Synopsis is the per-tile synopsis contract the sharded release
// composes: range queries plus the noisy dataset-size estimate that
// lets fully-covered tiles short-circuit. Every released synopsis type
// (*core.UniformGrid, *core.AdaptiveGrid, *hierarchy.Hierarchy,
// *kdtree.Tree, *wavelet.Privlet) implements it.
type Synopsis interface {
	Query(r geom.Rect) float64
	TotalEstimate() float64
	Epsilon() float64
	Domain() geom.Domain
	// ContainerKind, AppendBinary and WriteTo serialize the tile: its
	// kind, its dpgridv2 container and its JSON dump.
	ContainerKind() codec.Kind
	AppendBinary(dst []byte) ([]byte, error)
	io.WriterTo
}

// Sharded is a geo-sharded release: one per-tile synopsis per shard of
// a Plan, each built under the full epsilon by parallel composition.
// It is immutable once built, so queries may run from any number of
// goroutines concurrently.
type Sharded struct {
	plan     Plan
	eps      float64
	tileKind codec.Kind // the kind of every per-shard payload (an embeddable kind)
	tiles    []Synopsis
}

// Assemble constructs a sharded release from pre-built per-tile
// synopses — the path builders outside this package (any embeddable
// kind) use to produce a release without going through the UG/AG build
// fan-out. Every tile must be of an embeddable container kind, all
// tiles must share one kind, and each tile's domain and epsilon must
// match its plan tile and the release epsilon — checked at assembly so
// a bad release cannot be serialized in the first place, and by
// ParseShardedBinary, which assembles the tiles it decodes. The tiles
// slice is copied.
func Assemble(plan Plan, eps float64, tiles []Synopsis) (*Sharded, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	if _, err := noise.NewBudget(eps); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if len(tiles) != plan.NumTiles() {
		return nil, fmt.Errorf("shard: %d tiles != kx*ky = %d", len(tiles), plan.NumTiles())
	}
	kind := tiles[0].ContainerKind()
	for i, tile := range tiles {
		k := tile.ContainerKind()
		if !k.Embeddable() {
			return nil, fmt.Errorf("shard: tile %d: %w", i, errNotEmbeddable(k))
		}
		if k != kind {
			return nil, fmt.Errorf("shard: tile %d kind %q != tile 0 kind %q", i, k, kind)
		}
		if got, want := tile.Domain(), plan.Tile(i); got != want {
			return nil, fmt.Errorf("shard: tile %d: domain %v does not cover its plan tile %v", i, got.Rect, want.Rect)
		}
		if tile.Epsilon() != eps {
			return nil, fmt.Errorf("shard: tile %d: epsilon %g != release epsilon %g", i, tile.Epsilon(), eps)
		}
	}
	return &Sharded{plan: plan, eps: eps, tileKind: kind, tiles: append([]Synopsis(nil), tiles...)}, nil
}

// BuildUniform builds one UG synopsis per tile of plan, each under the
// full eps (parallel composition over disjoint tiles). The points are
// partitioned into per-tile blocks in memory; nothing spills to disk.
func BuildUniform(points []geom.Point, plan Plan, eps float64, grid core.UGOptions, opts Options, src noise.Source) (*Sharded, error) {
	grid = innerUGOptions(plan, grid, opts)
	return buildSpill(geom.SlicePoints(points), plan, noSpill, opts, codec.KindUniform, src,
		func(tile geom.Domain, seq geom.PointSeq, shardSrc noise.Source) (Synopsis, error) {
			return core.BuildUniformGridSeq(seq, tile, eps, grid, shardSrc)
		}, eps)
}

// BuildUniformSeq is BuildUniform over a streaming point source: one
// scan of the source partitions the stream into per-tile bounded spill
// buffers (see Options.MaxBufferedPoints), and each shard then builds
// from its own compact spool — the raw source is never re-scanned, so
// the build cost no longer grows with the tile count. The release is
// bit-identical to BuildUniform's for the same seed and plan.
func BuildUniformSeq(seq geom.PointSeq, plan Plan, eps float64, grid core.UGOptions, opts Options, src noise.Source) (*Sharded, error) {
	grid = innerUGOptions(plan, grid, opts)
	return buildSpill(seq, plan, opts.MaxBufferedPoints, opts, codec.KindUniform, src,
		func(tile geom.Domain, seq geom.PointSeq, shardSrc noise.Source) (Synopsis, error) {
			return core.BuildUniformGridSeq(seq, tile, eps, grid, shardSrc)
		}, eps)
}

// BuildAdaptive builds one AG synopsis per tile of plan, each under the
// full eps (parallel composition over disjoint tiles). When the shard
// fan-out itself runs parallel, each per-shard AG build is forced
// sequential (Workers = 1) so the two parallelism layers do not
// multiply; the release is bit-identical either way. As in BuildUniform,
// the points are partitioned in memory and nothing spills to disk.
func BuildAdaptive(points []geom.Point, plan Plan, eps float64, grid core.AGOptions, opts Options, src noise.Source) (*Sharded, error) {
	grid = innerAGOptions(plan, grid, opts)
	return buildSpill(geom.SlicePoints(points), plan, noSpill, opts, codec.KindAdaptive, src,
		func(tile geom.Domain, seq geom.PointSeq, shardSrc noise.Source) (Synopsis, error) {
			return core.BuildAdaptiveGridSeq(seq, tile, eps, grid, shardSrc)
		}, eps)
}

// BuildAdaptiveSeq is BuildAdaptive over a streaming point source: the
// source is scanned once into per-tile spill spools (see
// BuildUniformSeq), and each shard's AG build replays its own spool for
// whatever passes it needs. A tile that never spilled is built over its
// in-memory blocks in place; a spilled tile's build gathers its spool
// into memory like any streamed AG build (see
// core.BuildAdaptiveGridSeq), so each concurrent shard build holds at
// most that build's gather cap of points.
func BuildAdaptiveSeq(seq geom.PointSeq, plan Plan, eps float64, grid core.AGOptions, opts Options, src noise.Source) (*Sharded, error) {
	grid = innerAGOptions(plan, grid, opts)
	return buildSpill(seq, plan, opts.MaxBufferedPoints, opts, codec.KindAdaptive, src,
		func(tile geom.Domain, seq geom.PointSeq, shardSrc noise.Source) (Synopsis, error) {
			return core.BuildAdaptiveGridSeq(seq, tile, eps, grid, shardSrc)
		}, eps)
}

// innerAGOptions keeps nested parallelism bounded: with a parallel
// shard fan-out, the per-shard AG builds run sequentially (shard-level
// parallelism replaces cell-level); a sequential fan-out (Workers = 1,
// or a single tile) leaves the caller's cell-level Workers in force.
// Both layers are deterministic per seed, so the choice never changes
// the released bits.
func innerAGOptions(plan Plan, grid core.AGOptions, opts Options) core.AGOptions {
	if plan.NumTiles() > 1 && pool.Workers(opts.Workers) > 1 {
		grid.Workers = 1
	}
	return grid
}

// innerUGOptions is innerAGOptions for the UG builders: a parallel
// shard fan-out forces each per-shard build's ingestion scans
// sequential so the two parallelism layers do not multiply goroutines
// or partial-histogram memory. The released bits are identical either
// way (UG scans are exact and never touch the noise source).
func innerUGOptions(plan Plan, grid core.UGOptions, opts Options) core.UGOptions {
	if plan.NumTiles() > 1 && pool.Workers(opts.Workers) > 1 {
		grid.Workers = 1
	}
	return grid
}

// buildSpill is the one partition behind every sharded UG/AG build:
// one scan of the source routes every point into its tile's spool
// (see partitionSpill, with memBudget its spill budget), then the
// shared fan-out builds per-shard synopses from the spools.
func buildSpill(seq geom.PointSeq, plan Plan, memBudget int, opts Options, tileKind codec.Kind, src noise.Source,
	mk func(tile geom.Domain, seq geom.PointSeq, shardSrc noise.Source) (Synopsis, error), eps float64) (*Sharded, error) {
	sp, err := partitionSpill(seq, plan, memBudget)
	if err != nil {
		return nil, err
	}
	defer sp.Close()
	return build(plan, eps, opts, src, tileKind,
		func(i int, tile geom.Domain, shardSrc noise.Source) (Synopsis, error) {
			return mk(tile, sp.tileSeq(i), shardSrc)
		})
}

// build is the shared fan-out engine: it derives one deterministic
// noise sub-stream per shard and runs mk for every tile across the
// worker pool. mk must build tile i's synopsis from shardSrc alone so
// the result is independent of scheduling.
func build(plan Plan, eps float64, opts Options, src noise.Source, tileKind codec.Kind,
	mk func(i int, tile geom.Domain, shardSrc noise.Source) (Synopsis, error)) (*Sharded, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("shard: nil noise source")
	}
	if _, err := noise.NewBudget(eps); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	n := plan.NumTiles()
	tiles := make([]Synopsis, n)
	errs := make([]error, n)

	forkable, canFork := src.(noise.Forkable)
	workers := opts.Workers
	if canFork {
		// Per-build fork-key offset drawn from the advancing parent
		// stream (see noise.ForkNonce): reusing one Source across
		// builds yields fresh shard streams each time, while a fresh
		// Source with the same seed reproduces the mosaic exactly.
		nonce := noise.ForkNonce(src)
		pool.For(n, workers, func(i int) {
			shardSrc, err := noise.ForkChild(forkable, nonce+uint64(i))
			if err != nil {
				errs[i] = err
				return
			}
			tiles[i], errs[i] = mk(i, plan.Tile(i), shardSrc)
		})
	} else {
		if workers > 1 {
			return nil, errors.New("shard: Options.Workers > 1 requires a noise.Forkable source (noise.NewSource provides one)")
		}
		for i := 0; i < n; i++ {
			var err error
			tiles[i], err = mk(i, plan.Tile(i), src)
			if err != nil {
				errs[i] = err
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: tile %d: %w", i, err)
		}
	}
	return &Sharded{plan: plan, eps: eps, tileKind: tileKind, tiles: tiles}, nil
}

// QueryStats reports the routing observations of a single query — the
// serving path's instrumentation hook (dpserve aggregates these into
// its /metrics families). Collecting them costs nothing beyond the
// fan-out the query performs anyway.
type QueryStats struct {
	// Shards is the number of overlapping shards the fan-out visited
	// (every visited shard contributes to the answer).
	Shards int
}

// routeQuery is the fan-out every query takes: the answer is the sum,
// in shard-index order, of every overlapping shard's partial answer.
// Non-overlapping shards are never requested from tileAt, so
// planet-scale mosaics answer small queries by visiting a handful of
// tiles.
func routeQuery(plan Plan, r geom.Rect, tileAt func(int) Synopsis) float64 {
	est, _, _ := routeQueryCtx(context.Background(), plan, r, tileAt)
	return est
}

// routeQueryCtx is the cancellable fan-out: between shards it checks
// ctx and abandons the walk on cancellation, so a wide fan-out whose
// client has already gone away (request timeout, dropped connection)
// stops burning CPU. The per-shard check is one atomic load
// (ctx.Err on the standard contexts), negligible next to a tile
// answer. On cancellation the partial sum is discarded and err is the
// context's error; a completed walk returns err == nil and the same
// estimate as routeQuery, bit for bit.
func routeQueryCtx(ctx context.Context, plan Plan, r geom.Rect, tileAt func(int) Synopsis) (float64, int, error) {
	clipped, ok := plan.dom.Clip(r)
	if !ok {
		return 0, 0, nil
	}
	bx0, by0, bx1, by1 := plan.tileRange(clipped)
	var total float64
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
			total += tileAnswer(tileAt(by*plan.kx+bx), clipped)
		}
	}
	return total, (bx1 - bx0 + 1) * (by1 - by0 + 1), nil
}

// tileAnswer answers one shard for a rectangle already clipped to the
// domain (routeQuery pays the clip once, not once per overlapping
// shard): a shard whose whole tile lies inside the query contributes
// its TotalEstimate (an O(1) short-circuit); a partially covered shard
// answers its clipped rectangle.
func tileAnswer(tile Synopsis, clipped geom.Rect) float64 {
	if clipped.ContainsRect(tile.Domain().Rect) {
		return tile.TotalEstimate()
	}
	return tile.Query(clipped)
}

// Query estimates the number of data points in r (see routeQuery).
func (s *Sharded) Query(r geom.Rect) float64 {
	return routeQuery(s.plan, r, s.tileAt)
}

// QueryStatsCtx is Query, also reporting the fan-out observations the
// query produced, with cancellation: the fan-out checks ctx between
// shards and abandons the walk with the context's error, so a request
// whose client has gone away stops burning CPU on a wide mosaic. A
// completed walk returns the same estimate as Query, bit for bit (the
// same routeQuery walk in the same order).
func (s *Sharded) QueryStatsCtx(ctx context.Context, r geom.Rect) (float64, QueryStats, error) {
	est, n, err := routeQueryCtx(ctx, s.plan, r, s.tileAt)
	return est, QueryStats{Shards: n}, err
}

// ShardAnswer returns shard i's partial answer to r — exactly the term
// Query adds for that shard, so summing ShardAnswer over all shards in
// index order reproduces Query bit for bit.
func (s *Sharded) ShardAnswer(i int, r geom.Rect) float64 {
	clipped, ok := s.plan.dom.Clip(r)
	if !ok {
		return 0
	}
	return tileAnswer(s.tiles[i], clipped)
}

func (s *Sharded) tileAt(i int) Synopsis { return s.tiles[i] }

// Plan returns the mosaic plan.
func (s *Sharded) Plan() Plan { return s.plan }

// NumShards returns the number of per-tile synopses.
func (s *Sharded) NumShards() int { return len(s.tiles) }

// Shard returns the synopsis of tile i (row-major). It panics on an
// out-of-range index, mirroring slice semantics.
func (s *Sharded) Shard(i int) Synopsis { return s.tiles[i] }

// TileKind returns the container kind of the per-shard payloads (e.g.
// codec.KindAdaptive).
func (s *Sharded) TileKind() codec.Kind { return s.tileKind }

// Epsilon returns the privacy budget of the release. By parallel
// composition over disjoint tiles this is both the per-shard and the
// total epsilon.
func (s *Sharded) Epsilon() float64 { return s.eps }

// Domain returns the full sharded domain.
func (s *Sharded) Domain() geom.Domain { return s.plan.dom }

// SATBacked reports whether every tile answers from a stored
// summed-area section — i.e. whether queries against this release run
// on the O(1) prefix fast path in every tile.
func (s *Sharded) SATBacked() bool {
	for _, t := range s.tiles {
		sb, ok := t.(interface{ SATBacked() bool })
		if !ok || !sb.SATBacked() {
			return false
		}
	}
	return true
}

// TotalEstimate returns the noisy estimate of the dataset size: the sum
// of every shard's estimate, in shard-index order.
func (s *Sharded) TotalEstimate() float64 {
	var total float64
	for _, t := range s.tiles {
		total += t.TotalEstimate()
	}
	return total
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
