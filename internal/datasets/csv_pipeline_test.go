package datasets

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// withProcs runs fn at GOMAXPROCS n, the parse goroutine count of the
// CSV pipeline.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// waitGoroutines fails t unless the goroutine count falls back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// genCSV returns "x,y" text of random points, grown with padding lines
// to exactly size bytes when size > 0, and the points it holds, parsed
// line by line as the oracle.
func genCSV(rng *rand.Rand, lines, size int) (string, []geom.Point) {
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		x := strconv.FormatFloat(rng.Float64()*360-180, 'g', -1, 64)
		y := strconv.FormatFloat(rng.Float64()*180-90, 'g', -1, 64)
		sb.WriteString(x + "," + y + "\n")
	}
	if size > 0 {
		sb.WriteString(padCSV(size - sb.Len()))
	}
	text := sb.String()
	var pts []geom.Point
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		xs, ys, _ := strings.Cut(line, ",")
		x, _ := strconv.ParseFloat(xs, 64)
		y, _ := strconv.ParseFloat(ys, 64)
		pts = append(pts, geom.Point{X: x, Y: y})
	}
	return text, pts
}

// TestCSVPipelineDifferential checks the parallel parser's output and
// its PointSeq contract over files around the block size, at one and at
// several parse goroutines.
func TestCSVPipelineDifferential(t *testing.T) {
	if errContractBlock != csvBlockSize {
		t.Fatalf("the error contract's boundary cases assume %d-byte blocks, the parser reads %d", errContractBlock, csvBlockSize)
	}
	rng := rand.New(rand.NewSource(3))
	files := []struct {
		name        string
		lines, size int
	}{
		{"empty", 0, 0},
		{"one line", 1, 0},
		{"one chunk", geom.DefaultChunkSize, 0},
		{"one block", 1000, csvBlockSize},
		{"two blocks", 1000, 2 * csvBlockSize},
		{"three blocks", 1000, 3 * csvBlockSize},
		{"block and a line", 1000, csvBlockSize + 16},
		{"many lines", 150000, 0},
	}
	dir := t.TempDir()
	for i, f := range files {
		text, want := genCSV(rng, f.lines, f.size)
		if f.size > 0 && len(text) != f.size {
			t.Fatalf("%s: generated %d bytes, want %d", f.name, len(text), f.size)
		}
		path := filepath.Join(dir, strconv.Itoa(i)+".csv")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		var ref []geom.Point
		withProcs(1, func() {
			var err error
			if ref, err = ReadCSV(strings.NewReader(text)); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
		})
		if !equalPoints(ref, want) {
			t.Fatalf("%s: ReadCSV differs from the line-by-line oracle", f.name)
		}
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() {
				base := runtime.NumGoroutine()
				var got []geom.Point
				err := CSVFileSeq{Path: path}.ForEachChunk(func(chunk []geom.Point) error {
					if len(chunk) == 0 || len(chunk) > geom.DefaultChunkSize {
						t.Errorf("%s procs=%d: chunk of %d points", f.name, procs, len(chunk))
					}
					got = append(got, chunk...)
					return nil
				})
				if err != nil {
					t.Fatalf("%s procs=%d: %v", f.name, procs, err)
				}
				if !equalPoints(got, ref) {
					t.Errorf("%s procs=%d: %d points differ from the reference's %d", f.name, procs, len(got), len(ref))
				}
				waitGoroutines(t, base)

				if len(ref) == 0 {
					return
				}
				stop := errors.New("stop")
				calls := 0
				err = CSVFileSeq{Path: path}.ForEachChunk(func([]geom.Point) error {
					calls++
					return stop
				})
				if err != stop || calls != 1 {
					t.Errorf("%s procs=%d: fn error came back as %v after %d calls", f.name, procs, err, calls)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

func equalPoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// endlessCSV yields "1,2" lines forever, counting the bytes handed out.
type endlessCSV struct{ n atomic.Int64 }

func (r *endlessCSV) Read(p []byte) (int, error) {
	off := int(r.n.Load())
	for i := range p {
		p[i] = "1,2\n"[(off+i)%4]
	}
	r.n.Add(int64(len(p)))
	return len(p), nil
}

// TestCSVPipelineReadAhead checks that a consumer that stalls bounds
// how far the reader runs ahead, and that its error stops an endless
// input.
func TestCSVPipelineReadAhead(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			base := runtime.NumGoroutine()
			r := &endlessCSV{}
			release := make(chan struct{})
			stop := errors.New("stop")
			done := make(chan error, 1)
			go func() {
				done <- streamCSVChunks(r, func([]geom.Point) error {
					<-release
					return stop
				})
			}()
			// Wait until the reader has stalled, then hold it a while.
			for last := int64(-1); r.n.Load() != last; time.Sleep(20 * time.Millisecond) {
				last = r.n.Load()
			}
			time.Sleep(50 * time.Millisecond)
			limit := int64(2*procs+1) * csvBlockSize
			if n := r.n.Load(); n > limit {
				t.Errorf("procs=%d: read %d bytes ahead of a stalled consumer, limit %d", procs, n, limit)
			}
			close(release)
			if err := <-done; err != stop {
				t.Fatalf("procs=%d: got %v, want the consumer's error", procs, err)
			}
			waitGoroutines(t, base)
		})
	}
}
