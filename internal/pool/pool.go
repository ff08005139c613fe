// Package pool provides the bounded worker pool used by the parallel
// synopsis-construction and batch-query paths. It is deliberately tiny:
// one primitive, For, that runs an indexed loop body across a fixed number
// of goroutines with dynamic work stealing via a shared atomic counter.
//
// Determinism is the caller's job: bodies must write only to their own
// index's slot (or otherwise partition state by index) so the result is
// independent of scheduling. The parallel grid builders pair For with
// noise.Forkable sub-streams keyed by index for exactly this reason.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values < 1 (including the zero
// value of an options struct) mean "one worker per available CPU".
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs f over every item, spread across at most workers goroutines
// (see For), and returns the results in input order. dpgrid.QueryBatch
// is Map over Synopsis.Query.
func Map[T, R any](items []T, workers int, f func(T) R) []R {
	out := make([]R, len(items))
	For(len(items), workers, func(i int) { out[i] = f(items[i]) })
	return out
}

// For runs body(i) for every i in [0, n), spread across at most workers
// goroutines, and returns when all calls have finished. workers values
// below 1 mean Workers(0), i.e. GOMAXPROCS. With one worker (or n <= 1)
// the loop runs entirely on the calling goroutine, making the sequential
// path allocation- and scheduling-free.
//
// Indices are handed out dynamically in contiguous chunks (an atomic
// counter advanced by chunk size), so uneven body costs balance across
// workers while cheap bodies — a batch query is a handful of prefix-table
// reads — amortize the contended atomic over many indices instead of
// paying it per call. body must be safe to call from multiple goroutines
// for distinct indices.
func For(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	// ~8 handouts per worker keeps stealing effective for skewed costs;
	// the cap bounds tail latency when n is huge.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	} else if chunk > 256 {
		chunk = 256
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}
