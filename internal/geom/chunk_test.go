package geom_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/geom/geomtest"
)

func chunkTestPoints(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i % 101), Y: float64(i % 37)}
	}
	return pts
}

// blocksOf appends pts one by one to a block chain.
func blocksOf(pts []geom.Point) geom.Blocks {
	var b geom.Blocks
	for _, p := range pts {
		b.Append(p)
	}
	return b
}

// checkBlocks fails unless every block of b is non-empty and no longer
// than DefaultChunkSize.
func checkBlocks(t *testing.T, what string, b geom.Blocks) {
	t.Helper()
	for i, blk := range b {
		if len(blk) == 0 || len(blk) > geom.DefaultChunkSize {
			t.Fatalf("%s: block %d holds %d points, want 1..%d", what, i, len(blk), geom.DefaultChunkSize)
		}
	}
}

// seqsOf returns pts as every in-memory and streamed source shape.
func seqsOf(pts []geom.Point) map[string]geom.PointSeq {
	return map[string]geom.PointSeq{
		"slice":  geom.SlicePoints(pts),
		"blocks": blocksOf(pts),
		"reused": geomtest.ReusedChunks(pts),
	}
}

// Chunk-boundary sizes: the empty stream, one point, and one point on
// either side of every chunk edge.
func chunkSizes() []int {
	return []int{0, 1, geom.DefaultChunkSize - 1, geom.DefaultChunkSize, geom.DefaultChunkSize + 1, 3 * geom.DefaultChunkSize}
}

func TestForEachChunkPartitionsStream(t *testing.T) {
	for _, n := range chunkSizes() {
		pts := chunkTestPoints(n)
		for name, seq := range seqsOf(pts) {
			var got []geom.Point
			err := seq.ForEachChunk(func(chunk []geom.Point) error {
				if len(chunk) == 0 {
					t.Fatalf("n=%d %s: empty chunk", n, name)
				}
				got = append(got, chunk...)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d %s: chunks hold %d points", n, name, len(got))
			}
			for i, p := range got {
				if p != pts[i] {
					t.Fatalf("n=%d %s: point %d = %v, want %v (order not preserved)", n, name, i, p, pts[i])
				}
			}
		}
	}
}

func TestForEachChunkErrorStopsIteration(t *testing.T) {
	pts := chunkTestPoints(3 * geom.DefaultChunkSize)
	boom := errors.New("boom")
	for name, seq := range seqsOf(pts) {
		calls := 0
		err := seq.ForEachChunk(func(chunk []geom.Point) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("%s: error = %v, want boom", name, err)
		}
		if calls != 2 {
			t.Errorf("%s: fn ran %d times after error, want 2", name, calls)
		}
	}
}

func TestForEachChunkParallelSeesEveryPointOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0, runtime.GOMAXPROCS(0)} {
		for _, n := range chunkSizes() {
			pts := chunkTestPoints(n)
			for name, seq := range seqsOf(pts) {
				var mu sync.Mutex
				seen := make(map[geom.Point]int, n)
				total := 0
				err := geom.ForEachChunkParallel(seq, workers, func(w int, chunk []geom.Point) {
					mu.Lock()
					defer mu.Unlock()
					total += len(chunk)
					for _, p := range chunk {
						seen[p]++
					}
				})
				if err != nil {
					t.Fatalf("workers=%d n=%d %s: %v", workers, n, name, err)
				}
				if total != n {
					t.Fatalf("workers=%d n=%d %s: saw %d points", workers, n, name, total)
				}
				want := make(map[geom.Point]int, n)
				for _, p := range pts {
					want[p]++
				}
				for p, c := range want {
					if seen[p] != c {
						t.Fatalf("workers=%d n=%d %s: point %v seen %d times, want %d", workers, n, name, p, seen[p], c)
					}
				}
			}
		}
	}
}

// failingSeq streams two chunks of points and then fails, as a source
// whose disk dies mid-stream would.
type failingSeq struct{ err error }

func (s failingSeq) ForEachChunk(fn func([]geom.Point) error) error {
	if err := geomtest.ReusedChunks(chunkTestPoints(2 * geom.DefaultChunkSize)).ForEachChunk(fn); err != nil {
		return err
	}
	return s.err
}

func TestForEachChunkParallelPropagatesSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	for _, workers := range []int{1, 4} {
		err := geom.ForEachChunkParallel(failingSeq{boom}, workers, func(int, []geom.Point) {})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: error = %v, want boom", workers, err)
		}
	}
}

func TestCountInDomain(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := []geom.Point{
		{X: 5, Y: 5},
		{X: 0, Y: 0},    // min corner: inside (boundary inclusive)
		{X: 10, Y: 10},  // max corner: inside
		{X: 10.1, Y: 5}, // outside
		{X: -1, Y: 5},   // outside
	}
	// Pad with distinct in-domain points across a chunk boundary.
	for i := 0; i < geom.DefaultChunkSize; i++ {
		pts = append(pts, geom.Point{X: float64(i%97) / 10, Y: float64(i%89) / 10})
	}
	var inDomain []geom.Point
	for _, p := range pts {
		if dom.Contains(p) {
			inDomain = append(inDomain, p)
		}
	}
	want := int64(len(inDomain))
	for _, workers := range []int{1, 2, 7, 0} {
		for name, seq := range seqsOf(pts) {
			// A limit <= 0 gathers nothing, and so does one the data
			// overflows; a limit the data fits gathers every in-domain
			// point. The count is exact in every case.
			for _, limit := range []int{0, -1, int(want) - 1, int(want), 1 << 30} {
				got, n, err := geom.CountInDomain(seq, dom, workers, limit)
				if err != nil {
					t.Fatalf("workers=%d %s limit=%d: %v", workers, name, limit, err)
				}
				checkBlocks(t, fmt.Sprintf("workers=%d %s limit=%d", workers, name, limit), got)
				if n != want {
					t.Errorf("workers=%d %s limit=%d: count = %d, want %d", workers, name, limit, n, want)
				}
				if limit < int(want) {
					if got != nil {
						t.Errorf("workers=%d %s limit=%d: gathered %d points, want none", workers, name, limit, len(got))
					}
					continue
				}
				seen := make(map[geom.Point]int, len(inDomain))
				for _, blk := range got {
					for _, p := range blk {
						seen[p]++
					}
				}
				for _, p := range inDomain {
					seen[p]--
				}
				for p, c := range seen {
					if c != 0 {
						t.Fatalf("workers=%d %s limit=%d: point %v gathered %+d times too often", workers, name, limit, p, c)
					}
				}
			}
		}
	}
}

// The gather appends into per-worker block chains and never grows and
// copies a slice or concatenates the chains, so gathering N points
// allocates little more than their 16N bytes: the slack is each
// worker's part-filled last block and its short first blocks, and the
// fixed buffers are the source's parse buffer and the parallel
// scan's free list. Growing one slice by append and concatenating the
// per-worker slices costs several times the points' bytes.
func TestCountInDomainAllocations(t *testing.T) {
	const n = 1 << 20
	const pointSize = 16
	dom := geom.MustDomain(0, 0, 100, 100)
	seq := geomtest.ReusedChunks(chunkTestPoints(n))
	for _, workers := range []int{1, 4} {
		fixed := (1 + 2*workers) * geom.DefaultChunkSize * pointSize
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, count, err := geom.CountInDomain(seq, dom, workers, n)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count != n || got == nil {
			t.Fatalf("workers=%d: count %d, gathered %v, want all %d points", workers, count, got != nil, n)
		}
		grew := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(n*pointSize*5/4 + fixed); grew > limit {
			t.Errorf("workers=%d: gathering %d points allocated %d bytes, want at most %d (1.25 x 16N + %d fixed)",
				workers, n, grew, limit, fixed)
		}
	}
}

func TestBlocksAppendAndReset(t *testing.T) {
	pts := chunkTestPoints(3*geom.DefaultChunkSize + 5)
	b := blocksOf(pts)
	checkBlocks(t, "filled", b)
	var got []geom.Point
	if err := b.ForEachChunk(func(chunk []geom.Point) error {
		got = append(got, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("chain holds %d points, want %d", len(got), len(pts))
	}
	for i := range got {
		if got[i] != pts[i] {
			t.Fatalf("point %d = %v, want %v (order not preserved)", i, got[i], pts[i])
		}
	}
	// A reset chain refills the blocks it kept, in order, without
	// allocating new ones.
	first := &b[0][0]
	blocks := len(b)
	b.Reset()
	if len(b) != 0 {
		t.Fatalf("reset chain has %d blocks", len(b))
	}
	for _, p := range pts {
		b.Append(p)
	}
	if len(b) != blocks || &b[0][0] != first {
		t.Errorf("refilled chain has %d blocks (want %d) or a new first block", len(b), blocks)
	}
	// Empty blocks are never yielded.
	calls := 0
	if err := (geom.Blocks{nil, pts[:1], {}}).ForEachChunk(func(chunk []geom.Point) error {
		calls++
		if len(chunk) == 0 {
			t.Error("empty chunk yielded")
		}
		return nil
	}); err != nil || calls != 1 {
		t.Errorf("ForEachChunk over one non-empty block: %d calls, err %v", calls, err)
	}
}

func TestInMemory(t *testing.T) {
	for _, tc := range []struct {
		seq  geom.PointSeq
		want bool
	}{
		{geom.SlicePoints(nil), true},
		{geom.Blocks(nil), true},
		{geomtest.ReusedChunks(nil), false},
		{failingSeq{errors.New("unused")}, false},
	} {
		if got := geom.InMemory(tc.seq); got != tc.want {
			t.Errorf("InMemory(%T) = %v, want %v", tc.seq, got, tc.want)
		}
	}
}

func TestSlicePointsChunksAreSubslices(t *testing.T) {
	pts := chunkTestPoints(geom.DefaultChunkSize + 5)
	s := geom.SlicePoints(pts)
	var chunks [][]geom.Point
	if err := s.ForEachChunk(func(chunk []geom.Point) error {
		chunks = append(chunks, chunk) // safe: slice chunks alias stable memory
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 || len(chunks[0]) != geom.DefaultChunkSize || len(chunks[1]) != 5 {
		t.Fatalf("chunk shapes: %d chunks", len(chunks))
	}
	if &chunks[0][0] != &pts[0] || &chunks[1][0] != &pts[geom.DefaultChunkSize] {
		t.Error("slice chunks are copies, want zero-copy subslices")
	}
}

func ExampleSlicePoints_ForEachChunk() {
	pts := geom.SlicePoints{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	total := 0
	_ = pts.ForEachChunk(func(chunk []geom.Point) error {
		total += len(chunk)
		return nil
	})
	fmt.Println(total)
	// Output: 3
}
