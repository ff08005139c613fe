package datasets

import (
	"fmt"
	"os"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// CSVFileSeq streams points from a CSV file of "x,y" records without
// loading them into memory, re-opening the file on every pass. It
// implements geom.PointSeq, so the synopsis builders can ingest
// datasets larger than RAM — the paper's section IV-C efficiency
// argument — and the parallel ingestion engine can hand whole parsed
// blocks to histogram workers. Every pass parses the file on GOMAXPROCS goroutines (see
// streamCSVChunks) and delivers the points in file order.
type CSVFileSeq struct {
	Path string
}

// ForEachChunk implements geom.PointSeq via the parallel block parser:
// fn receives the file's points in order, in chunks of up to
// geom.DefaultChunkSize points that are reused after fn returns.
func (s CSVFileSeq) ForEachChunk(fn func(chunk []geom.Point) error) error {
	f, err := os.Open(s.Path)
	if err != nil {
		return fmt.Errorf("datasets: %w", err)
	}
	defer f.Close()
	return streamCSVChunks(f, fn)
}
