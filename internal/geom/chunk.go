package geom

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunkSize is the number of points per block the chunked
// ingestion path hands to histogram workers: 8192 points = 128 KiB per
// chunk, small enough to stay cache-resident while amortizing the
// per-chunk handoff (channel send or callback) over thousands of
// points.
const DefaultChunkSize = 8192

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
// worker-owned buffers before crossing the goroutine boundary; the
// chunks of an in-memory source (see InMemory) alias immutable memory
// and are sent directly.
func ForEachChunkParallel(seq PointSeq, workers int, handle func(worker int, chunk []Point)) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return seq.ForEachChunk(func(chunk []Point) error {
			handle(0, chunk)
			return nil
		})
	}
	stable := InMemory(seq)
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
	err := seq.ForEachChunk(func(chunk []Point) error {
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
// scanning the stream across workers goroutines (workers < 1 means one
// per CPU, 1 forces the sequential scan). It is the one counting scan
// behind the data-dependent grid-size rules — Guideline 1 needs N
// before the histogram pass can size its grid — and its count is exact
// for every workers value.
//
// With limit > 0 the scan also gathers the in-domain points, so the
// counting pass doubles as the point-gathering pass: when the count
// stays within limit, pts holds every in-domain point and the
// histogram pass can run over memory instead of a second scan of the
// source. Each worker appends to its own chain of blocks, so no point
// is copied twice and the chains join without a concatenation; the
// order of pts is stream order only for one worker. Past limit the
// buffers are dropped (the count continues exactly) and pts is nil, as
// it is for limit <= 0.
func CountInDomain(seq PointSeq, dom Domain, workers, limit int) (pts Blocks, n int64, err error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	chains := make([]Blocks, workers)
	counts := make([]int64, workers)
	var buffered atomic.Int64
	var dead atomic.Bool
	dead.Store(limit <= 0)
	err = ForEachChunkParallel(seq, workers, func(w int, chunk []Point) {
		chain, c := chains[w], counts[w]
		keep := !dead.Load()
		kept := 0
		for _, p := range chunk {
			if !dom.Contains(p) {
				continue
			}
			c++
			if keep {
				chain.Append(p)
				kept++
			}
		}
		if !keep {
			chain = nil
		}
		chains[w], counts[w] = chain, c
		if keep && buffered.Add(int64(kept)) > int64(limit) {
			dead.Store(true)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	for _, c := range counts {
		n += c
	}
	if dead.Load() {
		return nil, n, nil
	}
	pts = Blocks{}
	for _, chain := range chains {
		pts = append(pts, chain...)
	}
	return pts, n, nil
}
