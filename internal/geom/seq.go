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
