package shard

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
)

// Lazy is a sharded release backed by a dpgridv2 manifest whose
// per-shard synopses are materialized on first touch. Loading validates
// everything — manifest framing, every payload's structure and values,
// and the per-shard domain/epsilon cross-checks — but builds nothing,
// so a daemon serving a KxL mosaic pays decode cost (allocations and
// prefix tables) only for the tiles its traffic actually hits. Queries
// route exactly like Sharded's: only overlapping shards are touched,
// and therefore only overlapping shards are ever materialized.
//
// Lazy is safe for concurrent use: materialization is guarded by a
// per-shard sync.Once, and a materialized tile is immutable. It retains
// the manifest bytes it was parsed from for the life of the value.
type Lazy struct {
	raw          []byte
	plan         Plan
	eps          float64
	format       string
	kind         codec.Kind
	payloads     [][]byte
	tiles        []lazyTile
	materialized atomic.Int64
	zeroCopy     bool // materialize tiles as zero-copy views (mmap mode)
	satAll       bool // every payload carries a stored SAT section
}

type lazyTile struct {
	once sync.Once
	syn  Synopsis
}

// ParseShardedLazy deserializes a dpgridv2 sharded manifest without
// materializing any shard. Every payload is fully validated up front
// (the same checks ParseShardedBinary applies), which is what lets
// materialization be infallible later. The returned Lazy keeps data;
// the caller must not mutate it afterwards.
func ParseShardedLazy(data []byte) (*Lazy, error) {
	return parseShardedLazy(data, false)
}

// ParseShardedLazyView is ParseShardedLazy for memory-mapped data:
// tiles materialize through their kind's zero-copy view decoder, so a
// first touch builds a descriptor over the mapped payload bytes instead
// of copying the float sections onto the heap. Validation is identical
// — a payload that loads here answers bit-identically to one decoded
// eagerly. The returned Lazy retains data; the caller must keep it
// immutable and alive (e.g. hold the mapping open) for its lifetime.
func ParseShardedLazyView(data []byte) (*Lazy, error) {
	return parseShardedLazy(data, true)
}

func parseShardedLazy(data []byte, zeroCopy bool) (*Lazy, error) {
	sb, err := decodeShardedBinary(data, true)
	if err != nil {
		return nil, err
	}
	return &Lazy{
		raw:      sb.raw,
		plan:     sb.plan,
		eps:      sb.eps,
		format:   sb.format,
		kind:     sb.kind,
		payloads: sb.payloads,
		tiles:    make([]lazyTile, len(sb.payloads)),
		zeroCopy: zeroCopy,
		satAll:   sb.satAll,
	}, nil
}

// shard returns tile i's synopsis, materializing it on first touch.
func (l *Lazy) shard(i int) Synopsis { return l.shardTrack(i, nil) }

// shardTrack is shard with per-call materialization attribution: when
// fresh is non-nil and this call wins the tile's sync.Once, *fresh is
// incremented. The closure runs only in the winning goroutine, so a
// decode raced by concurrent first touches is attributed to exactly one
// caller — which is what lets QueryStatsCtx report materializations as a
// counter without double counting.
//
// Payloads were exhaustively validated at load, so the parse here
// cannot fail; a failure means the backing bytes were mutated after
// load, which is memory corruption — panic loudly rather than serve
// garbage.
func (l *Lazy) shardTrack(i int, fresh *int) Synopsis {
	t := &l.tiles[i]
	t.once.Do(func() {
		parse := parseShardPayload
		if l.zeroCopy {
			parse = parseShardPayloadView
		}
		syn, err := parse(l.kind, l.payloads[i])
		if err != nil {
			panic(fmt.Sprintf("shard: tile %d failed to materialize after validating at load: %v", i, err))
		}
		t.syn = syn
		l.materialized.Add(1)
		if fresh != nil {
			*fresh++
		}
	})
	return t.syn
}

// MaterializedShards returns how many shards have been decoded so far —
// the observable a serving test uses to prove queries touch only the
// tiles they overlap.
func (l *Lazy) MaterializedShards() int { return int(l.materialized.Load()) }

// SATBacked reports whether every payload in the manifest carries a
// stored summed-area section — i.e. whether queries against this
// release run on the O(1) prefix fast path in every tile.
func (l *Lazy) SATBacked() bool { return l.satAll }

// Query estimates the number of data points in r, visiting (and, on
// first touch, materializing) only the shards overlapping r — the same
// routeQuery fan-out as Sharded, so answers are identical to the
// eagerly parsed release's.
func (l *Lazy) Query(r geom.Rect) float64 {
	return routeQuery(l.plan, r, l.shard)
}

// QueryStatsCtx is Query, also reporting the fan-out observations the
// query produced, including how many shards it decoded on first touch,
// with cancellation (see Sharded.QueryStatsCtx): an abandoned request
// stops both the fan-out and the lazy materialization of tiles nobody
// will read. A completed walk's estimate is bit-identical to Query's.
func (l *Lazy) QueryStatsCtx(ctx context.Context, r geom.Rect) (float64, QueryStats, error) {
	var fresh int
	est, n, err := routeQueryCtx(ctx, l.plan, r, func(i int) Synopsis { return l.shardTrack(i, &fresh) })
	return est, QueryStats{Shards: n, Materialized: fresh}, err
}

// ShardAnswer returns shard i's partial answer to r (see
// Sharded.ShardAnswer), materializing the shard on first touch.
func (l *Lazy) ShardAnswer(i int, r geom.Rect) float64 {
	clipped, ok := l.plan.dom.Clip(r)
	if !ok {
		return 0
	}
	return tileAnswer(l.shard(i), clipped)
}

// Plan returns the mosaic plan.
func (l *Lazy) Plan() Plan { return l.plan }

// NumShards returns the number of tiles in the release (materialized or
// not).
func (l *Lazy) NumShards() int { return len(l.tiles) }

// Shard returns the synopsis of tile i (row-major), materializing it on
// first touch. It panics on an out-of-range index, mirroring slice
// semantics.
func (l *Lazy) Shard(i int) Synopsis { return l.shard(i) }

// ShardFormat returns the serialization format tag of the per-shard
// payloads (the embedded kind's JSON format, e.g. core.FormatUG).
func (l *Lazy) ShardFormat() string { return l.format }

// Epsilon returns the privacy budget of the release.
func (l *Lazy) Epsilon() float64 { return l.eps }

// Domain returns the full sharded domain.
func (l *Lazy) Domain() geom.Domain { return l.plan.dom }

// TotalEstimate returns the noisy estimate of the dataset size; it
// materializes every shard.
func (l *Lazy) TotalEstimate() float64 {
	var total float64
	for i := range l.tiles {
		total += l.shard(i).TotalEstimate()
	}
	return total
}

// Eager materializes every shard and returns the release as a plain
// Sharded, for callers that want the raw-bytes-free representation.
func (l *Lazy) Eager() *Sharded {
	tiles := make([]Synopsis, len(l.tiles))
	for i := range tiles {
		tiles[i] = l.shard(i)
	}
	return &Sharded{plan: l.plan, eps: l.eps, format: l.format, tiles: tiles}
}

// WriteTo serializes the release as a JSON manifest (materializing
// every shard). For the binary encoding AppendBinary returns the
// original container bytes unchanged.
func (l *Lazy) WriteTo(w io.Writer) (int64, error) {
	return l.Eager().WriteTo(w)
}

// AppendBinary appends the release's dpgridv2 manifest to dst. A Lazy
// is immutable post-parse, so this is the retained container verbatim —
// bit-identical to the file it was loaded from, with no
// materialization.
func (l *Lazy) AppendBinary(dst []byte) ([]byte, error) {
	return append(dst, l.raw...), nil
}
