package dpgrid

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func writePointsCSV(t *testing.T, pts []Point) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range pts {
		sb.WriteString(strconv.FormatFloat(p.X, 'g', -1, 64))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "stream.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamingMatchesInMemory: building from a CSV stream must produce
// the exact same synopsis as building from the equivalent slice, given
// the same noise seed.
func TestStreamingMatchesInMemory(t *testing.T) {
	dom, _ := NewDomain(0, 0, 100, 100)
	pts := examplePoints(61, 20000, dom)
	csvPath := writePointsCSV(t, pts)
	r := NewRect(12.3, 23.4, 78.9, 89.1)

	t.Run("UG", func(t *testing.T) {
		mem, err := BuildUniformGrid(pts, dom, 1, UGOptions{}, NewNoiseSource(61))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := BuildUniformGridSeq(CSVFilePoints(csvPath), dom, 1, UGOptions{}, NewNoiseSource(61))
		if err != nil {
			t.Fatal(err)
		}
		if mem.GridSize() != stream.GridSize() {
			t.Fatalf("grid sizes differ: %d vs %d", mem.GridSize(), stream.GridSize())
		}
		if a, b := mem.Query(r), stream.Query(r); a != b {
			t.Errorf("answers differ: %g vs %g", a, b)
		}
	})

	t.Run("AG", func(t *testing.T) {
		mem, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(62))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := BuildAdaptiveGridSeq(CSVFilePoints(csvPath), dom, 1, AGOptions{}, NewNoiseSource(62))
		if err != nil {
			t.Fatal(err)
		}
		if mem.M1() != stream.M1() {
			t.Fatalf("m1 differ: %d vs %d", mem.M1(), stream.M1())
		}
		if a, b := mem.Query(r), stream.Query(r); a != b {
			t.Errorf("answers differ: %g vs %g", a, b)
		}
	})
}

func TestStreamingMissingFile(t *testing.T) {
	dom, _ := NewDomain(0, 0, 1, 1)
	_, err := BuildUniformGridSeq(CSVFilePoints("/no/such/file.csv"), dom, 1, UGOptions{}, NewNoiseSource(1))
	if err == nil {
		t.Error("missing file accepted")
	}
}

// errSeq fails partway through iteration once failAt scans have
// started, exercising error propagation from mid-stream failures (e.g.
// disk errors during a build scan).
type errSeq struct {
	calls  *int
	failAt int
}

func (e errSeq) ForEachChunk(fn func([]Point) error) error {
	*e.calls++
	if err := fn([]Point{{X: 0.5, Y: 0.5}}); err != nil {
		return err
	}
	if *e.calls >= e.failAt {
		return errors.New("disk on fire")
	}
	return nil
}

func TestStreamingMidStreamError(t *testing.T) {
	dom, _ := NewDomain(0, 0, 1, 1)
	// The gathering scan is the first scan of a streamed source, so a
	// failure on it is the mid-stream case. (A failure on a later
	// re-scan, past the gather cap, is tested in internal/core.)
	calls := 0
	_, err := BuildAdaptiveGridSeq(errSeq{&calls, 1}, dom, 1, AGOptions{M1: 2}, NewNoiseSource(1))
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("mid-stream error not propagated: %v", err)
	}
}

func TestSlicePointsSeq(t *testing.T) {
	pts := SlicePoints{{X: 1, Y: 2}, {X: 3, Y: 4}}
	var seen int
	if err := pts.ForEachChunk(func(chunk []Point) error {
		seen += len(chunk)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Errorf("seen = %d, want 2", seen)
	}
}
