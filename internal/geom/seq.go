package geom

// PointSeq is a re-iterable stream of points, delivered in blocks. It
// abstracts the data source so synopsis builders can scan datasets too
// large to hold in memory (the paper's section IV-C efficiency claim:
// UG needs one scan, AG at most two). Blocked iteration is also the
// substrate of the parallel ingestion engine (ForEachChunkParallel and
// the builders on top of it): workers consume whole chunks, so the
// per-point cost is a slice iteration, not an indirect call.
//
// Contract: every chunk is non-empty, chunks partition the stream in
// order, and the chunk slice is only valid until fn returns (sources
// may reuse the backing array between calls — callers that need to
// retain points must copy them). ForEachChunk must be callable multiple
// times, each call replaying the whole stream in the same order (the
// AG build re-reads a source too large to gather into memory). A
// non-nil error from fn stops the iteration and is returned unwrapped.
//
// A per-point source ports by buffering its points into slices of
// DefaultChunkSize and handing each full slice (and the final partial
// one) to fn.
type PointSeq interface {
	ForEachChunk(fn func(chunk []Point) error) error
}

// ChunkSeq is an alias of PointSeq for callers that still use the name.
type ChunkSeq = PointSeq

// SlicePoints adapts an in-memory point slice to PointSeq.
type SlicePoints []Point

// ForEachChunk implements PointSeq: consecutive subslices of the
// underlying slice, no copying. The chunks alias the slice itself, so
// (unlike reused parse buffers) they happen to stay valid after fn
// returns; callers must not rely on that — it is not part of the
// PointSeq contract.
func (s SlicePoints) ForEachChunk(fn func(chunk []Point) error) error {
	for start := 0; start < len(s); start += DefaultChunkSize {
		if err := fn(s[start:min(start+DefaultChunkSize, len(s))]); err != nil {
			return err
		}
	}
	return nil
}

// Blocks is an in-memory point set held as a chain of blocks of at most
// DefaultChunkSize points each. It is what the gathering scan
// (CountInDomain) and the sharded partitioner fill: a full block is
// kept and a new one started, so a growing set never copies the points
// it already holds, and the blocks are handed to consumers as chunks
// exactly as they are.
type Blocks [][]Point

// firstBlockSize is the capacity of a chain's first block; each later
// block doubles, up to DefaultChunkSize. Starting small keeps a sparse
// mosaic with many tiles (one chain per tile) about as cheap as a plain
// slice grown from nil: 128 bytes for a tile of one point.
const firstBlockSize = 8

// ForEachChunk implements PointSeq: every non-empty block, in order,
// without copying.
func (b Blocks) ForEachChunk(fn func(chunk []Point) error) error {
	for _, blk := range b {
		if len(blk) == 0 {
			continue
		}
		if err := fn(blk); err != nil {
			return err
		}
	}
	return nil
}

// Append adds p to the end of the chain, starting a new block when the
// last one is full.
func (b *Blocks) Append(p Point) {
	if s := *b; len(s) > 0 && len(s[len(s)-1]) < cap(s[len(s)-1]) {
		s[len(s)-1] = append(s[len(s)-1], p)
		return
	}
	b.grow(p)
}

// grow starts the next block with p: a block Reset kept, or a new one
// twice the size of the last, up to DefaultChunkSize.
func (b *Blocks) grow(p Point) {
	s := *b
	n := len(s)
	if n == cap(s) || cap(s[:n+1][n]) == 0 {
		size := firstBlockSize
		if n > 0 {
			size = min(2*cap(s[n-1]), DefaultChunkSize)
		}
		s = append(s[:n], make([]Point, 0, size))
	} else {
		s = s[:n+1]
	}
	s[n] = append(s[n], p)
	*b = s
}

// Reset empties the chain but keeps its blocks' storage: later Appends
// refill the same blocks in order, so a chain that is filled and
// drained repeatedly stops allocating once it has reached its peak.
func (b *Blocks) Reset() {
	s := *b
	for i := range s {
		s[i] = s[i][:0]
	}
	*b = s[:0]
}

// InMemory reports whether seq already holds its points in memory
// (SlicePoints or Blocks): its chunks alias immutable storage that
// stays valid after fn returns, so consumers may use them in place —
// ForEachChunkParallel hands them to workers without a copy, and the
// builders scan them instead of gathering them again.
func InMemory(seq PointSeq) bool {
	switch seq.(type) {
	case SlicePoints, Blocks:
		return true
	}
	return false
}
