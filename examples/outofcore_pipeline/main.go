// Out-of-core pipeline: the full data-holder workflow for datasets that
// do not fit in memory, combining the library's streaming construction
// (the paper's "single scan / two passes" efficiency claim, section
// IV-C) with synopsis serialization.
//
//	go run ./examples/outofcore_pipeline
//
// Steps:
//  1. A large CSV of points exists on disk (simulated here).
//  2. The data holder streams it — never loading it into memory — into
//     an AG synopsis under eps-DP (one scan when the dataset has up to
//     8M in-domain points, three bounded-memory scans past that).
//  3. The synopsis is saved to a small binary release file. The raw
//     data can now be deleted or locked away; the privacy budget is
//     spent.
//  4. An analyst later loads the synopsis and answers arbitrary range
//     queries with no access to the raw data and no further privacy cost.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/atomicfile"
	"github.com/dpgrid/dpgrid/internal/datasets"
)

func main() {
	workDir, err := os.MkdirTemp("", "dpgrid-pipeline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	// Step 1: a "large" CSV on disk (200k points standing in for data
	// that would not fit in RAM).
	csvPath := filepath.Join(workDir, "checkins.csv")
	data, err := datasets.ByName("checkin", 0.2, 17)
	if err != nil {
		log.Fatal(err)
	}
	err = atomicfile.Write(csvPath, func(w io.Writer) error {
		return datasets.WriteCSV(w, data.Points)
	})
	if err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(csvPath)
	fmt.Printf("step 1: %d points on disk (%s, %.1f MB)\n", data.N(), csvPath, float64(info.Size())/1e6)

	// Step 2: stream-build the synopsis. CSVFilePoints re-reads the file
	// per pass; memory use is bounded by the synopsis, not the data.
	dom := data.Domain
	const eps = 1.0
	syn, err := dpgrid.BuildAdaptiveGridSeq(
		dpgrid.CSVFilePoints(csvPath), dom, eps,
		dpgrid.AGOptions{}, dpgrid.NewNoiseSource(21))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 2: built AG synopsis over the stream (m1=%d, %d leaf cells, eps=%g)\n",
		syn.M1(), syn.LeafCells(), eps)

	// Step 3: persist the release.
	synPath := filepath.Join(workDir, "synopsis.dpgrid")
	if err := dpgrid.WriteSynopsisFile(synPath, syn); err != nil {
		log.Fatal(err)
	}
	sInfo, _ := os.Stat(synPath)
	fmt.Printf("step 3: saved synopsis (%.2f MB — %.0fx smaller than the data)\n",
		float64(sInfo.Size())/1e6, float64(info.Size())/float64(sInfo.Size()))

	// Step 4: the analyst's side — no raw data in sight.
	loaded, err := dpgrid.LoadSynopsisFile(synPath)
	if err != nil {
		log.Fatal(err)
	}
	queries := []struct {
		name string
		rect dpgrid.Rect
	}{
		{"western Europe", dpgrid.NewRect(-10, 36, 20, 60)},
		{"US east coast", dpgrid.NewRect(-85, 25, -65, 45)},
		{"south Pacific", dpgrid.NewRect(-160, -50, -120, -10)},
	}
	fmt.Println("step 4: analyst queries the loaded synopsis:")
	for _, q := range queries {
		fmt.Printf("  %-16s %12.1f check-ins\n", q.name, loaded.Query(q.rect))
	}
}
