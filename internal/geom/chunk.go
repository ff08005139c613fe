package geom

import (
	"runtime"
	"sync"
)

// DefaultChunkSize is the number of points per block the chunked
// ingestion path hands to histogram workers: 8192 points = 128 KiB per
// chunk, small enough to stay cache-resident while amortizing the
// per-chunk handoff (channel send or callback) over thousands of
// points.
const DefaultChunkSize = 8192

// ChunkSeq is a PointSeq that can also replay the stream in blocks.
// Blocked iteration is the substrate of the parallel ingestion engine
// (grid.FromSeqParallel and the builders on top of it): workers consume
// whole chunks instead of taking a per-point callback, so the per-point
// cost is a slice iteration, not an indirect call.
//
// Contract: every chunk is non-empty, chunks partition the stream in
// order, and the chunk slice is only valid until fn returns (sources
// reuse the backing array between calls — callers that need to retain
// points must copy them). Like ForEach, ForEachChunk must be callable
// multiple times, each call replaying the whole stream.
type ChunkSeq interface {
	PointSeq
	// ForEachChunk streams the points in consecutive blocks. A non-nil
	// error from fn aborts the iteration and is returned unwrapped.
	ForEachChunk(fn func(chunk []Point) error) error
}

// chunkAbort carries fn's error out of a per-point ForEach that has no
// other way to stop early (see ForEachChunk's adapter path).
type chunkAbort struct{ err error }

// ForEachChunk streams seq in blocks: natively when seq implements
// ChunkSeq (slices yield zero-copy subslices, the CSV source yields its
// parse buffers), otherwise by packing the per-point ForEach
// stream into an internal buffer of DefaultChunkSize points. Every
// PointSeq therefore has a chunked view, which is what lets the
// parallel builders accept arbitrary sources.
//
// A non-nil error from fn stops the iteration immediately on both
// paths. The ForEach interface offers no abort channel, so the adapter
// unwinds with a sentinel panic; the source's own deferred cleanup
// (file closes etc.) runs normally.
func ForEachChunk(seq PointSeq, fn func(chunk []Point) error) (err error) {
	if cs, ok := seq.(ChunkSeq); ok {
		return cs.ForEachChunk(fn)
	}
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(chunkAbort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
	}()
	buf := make([]Point, 0, DefaultChunkSize)
	err = seq.ForEach(func(p Point) {
		buf = append(buf, p)
		if len(buf) == cap(buf) {
			if fnErr := fn(buf); fnErr != nil {
				panic(chunkAbort{fnErr})
			}
			buf = buf[:0]
		}
	})
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		return fn(buf)
	}
	return nil
}

// ForEachChunk implements ChunkSeq: consecutive subslices of the
// underlying slice, no copying. The chunks alias the slice itself, so
// (unlike reused parse buffers) they happen to stay valid after fn
// returns; callers must not rely on that — it is not part of the
// ChunkSeq contract.
func (s SlicePoints) ForEachChunk(fn func(chunk []Point) error) error {
	for start := 0; start < len(s); start += DefaultChunkSize {
		end := start + DefaultChunkSize
		if end > len(s) {
			end = len(s)
		}
		if err := fn(s[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// ForEachChunkParallel streams seq once and fans its chunks out across
// workers goroutines: each chunk is handed to exactly one worker, and
// handle(w, chunk) runs concurrently for distinct workers w in
// [0, workers). The chunk is only valid during the call. workers < 1
// means one worker per CPU; with one worker, handle runs on the calling
// goroutine and ForEachChunkParallel itself adds no copies, channels,
// or goroutines (the source may still use its own: the CSV source
// parses on GOMAXPROCS goroutines behind its ordered chunk stream).
//
// Which worker receives which chunk is scheduling-dependent, so handle
// must accumulate into per-worker state whose merged result is
// order-independent. Histogramming qualifies: cell counts are sums of
// exact small integers, so any partition of the stream merges to the
// bit-identical total — this is where the determinism of the parallel
// build paths comes from.
//
// Chunks from a source with reused parse buffers are copied into
// worker-owned buffers before crossing the goroutine boundary;
// SlicePoints chunks alias immutable caller memory and are sent
// directly.
func ForEachChunkParallel(seq PointSeq, workers int, handle func(worker int, chunk []Point)) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return ForEachChunk(seq, func(chunk []Point) error {
			handle(0, chunk)
			return nil
		})
	}
	_, stable := seq.(SlicePoints)
	work := make(chan []Point, workers)
	var free chan []Point
	if !stable {
		free = make(chan []Point, 2*workers)
		for i := 0; i < 2*workers; i++ {
			free <- make([]Point, 0, DefaultChunkSize)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for chunk := range work {
				handle(w, chunk)
				if !stable {
					free <- chunk[:0]
				}
			}
		}(w)
	}
	err := ForEachChunk(seq, func(chunk []Point) error {
		if stable {
			work <- chunk
			return nil
		}
		buf := <-free
		work <- append(buf[:0], chunk...)
		return nil
	})
	close(work)
	wg.Wait()
	return err
}

// CountInDomain returns the number of points of seq inside dom,
// scanning the chunked view of the stream across workers goroutines
// (workers < 1 means one per CPU, 1 forces the sequential scan). It is
// the shared counting scan behind the data-dependent grid-size rules —
// Guideline 1 needs N before the histogram pass can size its grid —
// and its result is exact for every workers value.
func CountInDomain(seq PointSeq, dom Domain, workers int) (int64, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	counts := make([]int64, workers)
	err := ForEachChunkParallel(seq, workers, func(w int, chunk []Point) {
		n := counts[w]
		for _, p := range chunk {
			if dom.Contains(p) {
				n++
			}
		}
		counts[w] = n
	})
	if err != nil {
		return 0, err
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	return n, nil
}
