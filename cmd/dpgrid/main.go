// Command dpgrid builds a differentially private synopsis from a CSV of
// points and answers rectangular count queries with it.
//
// Usage:
//
//	# Answer one query (domain inferred from flags, not from the data):
//	dpgrid -in points.csv -domain="-125,30,-100,50" -method ag -eps 1 \
//	       -query="-123,45,-120,48"
//
//	# Answer queries streamed as "x0,y0,x1,y1" lines from a file:
//	dpgrid -in points.csv -domain="0,0,100,100" -method ug -eps 0.5 \
//	       -queries queries.csv
//
//	# Build and save a geo-sharded 4x4 release (each tile spends the
//	# full epsilon via parallel composition over disjoint tiles). The
//	# file is the dpgridv2 container, whose tiles dpserve serves
//	# straight from the file bytes:
//	dpgrid -in points.csv -domain="0,0,100,100" -method ag -eps 1 \
//	       -shards 4x4 -save mosaic.dpgrid
//
// ug/ag builds stream the CSV through the parallel ingestion engine
// (-workers bounds the goroutines, default one per CPU); for a fixed
// -seed the released synopsis is bit-identical for every -workers
// value.
//
// The synopsis is built once (consuming the full epsilon); every query
// answered afterwards is free post-processing.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/shard"
)

func nowNanos() int64 { return time.Now().UnixNano() }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine renders a failure for stderr with one "dpgrid: " prefix:
// the library's errors already start with it, the command's own do not.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "dpgrid: ") {
		return msg
	}
	return "dpgrid: " + msg
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dpgrid", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV of x,y points (required unless -load)")
	domainFlag := fs.String("domain", "", "public domain as minX,minY,maxX,maxY (required with -in; do not derive from private data)")
	method := fs.String("method", "ag", "synopsis method: ug|ag|hierarchy|kdtree|kdstandard|privlet|auto (kdhybrid = kdtree; auto picks per the paper's guidelines and the query workload, explaining its choice on stderr)")
	shards := fs.String("shards", "", "build a geo-sharded KxL release, e.g. 4x4 (ug/ag only; each tile spends the full epsilon via parallel composition)")
	eps := fs.Float64("eps", 1, "privacy budget epsilon")
	gridSize := fs.Int("m", 0, "grid size override (ug/hierarchy/privlet); 0 = Guideline 1")
	seed := fs.Int64("seed", 0, "noise seed (0 = non-deterministic)")
	workers := fs.Int("workers", 0, "goroutines for the parallel build engine (0 = one per CPU); the released synopsis is bit-identical for every value. CSV parsing always uses GOMAXPROCS goroutines")
	queryFlag := fs.String("query", "", "single query rectangle x0,y0,x1,y1")
	queriesFile := fs.String("queries", "", "file of query rectangles, one x0,y0,x1,y1 per line")
	saveFile := fs.String("save", "", "write the built synopsis (any method) to this file for later -load")
	saveFormat := fs.String("format", dpgrid.FormatBinary, "-save encoding: binary (the dpgridv2 release; loads in place, its tables aliasing the file bytes) or json (a readable dump that does not load)")
	loadFile := fs.String("load", "", "load a previously saved binary synopsis instead of building one")
	synthesize := fs.Int("synthesize", 0, "sample this many synthetic points from the synopsis as CSV on stdout (-1 = synopsis's own size estimate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *loadFile == "" && *in == "" {
		return fmt.Errorf("-in is required (or -load a saved synopsis)")
	}
	if *loadFile != "" && *in != "" {
		return fmt.Errorf("-in and -load are mutually exclusive")
	}
	if *loadFile == "" && *domainFlag == "" {
		return fmt.Errorf("-domain is required (the domain must be public knowledge)")
	}
	if *queryFlag == "" && *queriesFile == "" && *saveFile == "" && *synthesize == 0 {
		return fmt.Errorf("need -query, -queries, -save, or -synthesize")
	}
	if *saveFormat != dpgrid.FormatJSON && *saveFormat != dpgrid.FormatBinary {
		return fmt.Errorf("bad -format %q: want %s or %s", *saveFormat, dpgrid.FormatJSON, dpgrid.FormatBinary)
	}

	// Parse the query workload up front: bad specs fail before the
	// (budget-consuming) build, and -method auto folds the workload
	// shape into its choice.
	queries, err := loadQueries(*queryFlag, *queriesFile)
	if err != nil {
		return err
	}

	var syn dpgrid.Synopsis
	if *loadFile != "" {
		if syn, err = dpgrid.LoadSynopsisFile(*loadFile); err != nil {
			return err
		}
	} else {
		nums, err := parseFloats(*domainFlag, 4)
		if err != nil {
			return fmt.Errorf("bad -domain: %w", err)
		}
		dom, err := dpgrid.NewDomain(nums[0], nums[1], nums[2], nums[3])
		if err != nil {
			return err
		}

		src := dpgrid.NewNoiseSource(*seed)
		if *seed == 0 {
			src = dpgrid.NewNoiseSource(int64(os.Getpid())*1e9 + nowNanos())
		}

		// ug/ag (mono or sharded) build through the streaming ingestion
		// engine — the CSV is block-parsed and histogrammed without ever
		// materializing the dataset; the baseline methods still need the
		// point slice in memory.
		seq := dpgrid.CSVFilePoints(*in)
		var points []dpgrid.Point
		readPoints := func() ([]dpgrid.Point, error) {
			f, err := os.Open(*in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return datasets.ReadCSV(f)
		}

		// Resolve aliases and -method auto to a concrete method before
		// dispatching. auto reads the dataset once to learn N, folds in
		// the workload shape, and reports its (auditable) choice on
		// stderr so pipelines capturing stdout stay clean. The build
		// then reuses the points auto read instead of parsing the CSV
		// again.
		chosen := *method
		if chosen == "kdhybrid" {
			chosen = "kdtree"
		}
		if chosen == "auto" {
			if points, err = readPoints(); err != nil {
				return err
			}
			seq = dpgrid.SlicePoints(points)
			rects := make([]dpgrid.Rect, len(queries))
			for i, q := range queries {
				rects[i] = q.rect
			}
			choice := dpgrid.SelectMethod(len(points), *eps, dpgrid.WorkloadShapeOf(dom, rects))
			fmt.Fprintf(os.Stderr, "auto: selected %s (%s)\n", choice.Method, choice.Reason)
			chosen = string(choice.Method)
		}

		if *shards != "" {
			kx, ky, perr := shard.ParseDims(*shards)
			if perr != nil {
				return fmt.Errorf("-shards: %w", perr)
			}
			plan, perr := dpgrid.NewShardPlan(dom, kx, ky)
			if perr != nil {
				return perr
			}
			sopts := dpgrid.ShardOptions{Workers: *workers}
			switch chosen {
			case "ug":
				syn, err = dpgrid.BuildShardedUniformGridSeq(seq, plan, *eps, dpgrid.UGOptions{GridSize: *gridSize, Workers: *workers}, sopts, src)
			case "ag":
				syn, err = dpgrid.BuildShardedAdaptiveGridSeq(seq, plan, *eps, dpgrid.AGOptions{Workers: *workers}, sopts, src)
			default:
				return fmt.Errorf("-shards supports ug and ag, not %q", chosen)
			}
			if err != nil {
				return err
			}
		} else {
			switch chosen {
			case "ug":
				syn, err = dpgrid.BuildUniformGridSeq(seq, dom, *eps, dpgrid.UGOptions{GridSize: *gridSize, Workers: *workers}, src)
			case "ag":
				syn, err = dpgrid.BuildAdaptiveGridSeq(seq, dom, *eps, dpgrid.AGOptions{Workers: *workers}, src)
			case "hierarchy", "kdtree", "kdstandard", "privlet":
				if points == nil {
					if points, err = readPoints(); err != nil {
						return err
					}
				}
				switch chosen {
				case "hierarchy":
					if *gridSize > 0 {
						syn, err = dpgrid.BuildHierarchy(points, dom, *eps, dpgrid.HierarchyOptions{GridSize: *gridSize, Branching: 2, Depth: 3}, src)
					} else {
						syn, err = dpgrid.BuildMethod(dpgrid.MethodHierarchy, points, dom, *eps, src)
					}
				case "kdtree":
					syn, err = dpgrid.BuildKDTree(points, dom, *eps, dpgrid.KDTreeOptions{Method: dpgrid.KDHybrid}, src)
				case "kdstandard":
					syn, err = dpgrid.BuildKDTree(points, dom, *eps, dpgrid.KDTreeOptions{Method: dpgrid.KDStandard}, src)
				case "privlet":
					m := *gridSize
					if m == 0 {
						m = dpgrid.SuggestedGridSize(len(points), *eps)
					}
					syn, err = dpgrid.BuildPrivlet(points, dom, *eps, dpgrid.PrivletOptions{GridSize: m}, src)
				}
			default:
				return fmt.Errorf("unknown method %q", chosen)
			}
			if err != nil {
				return err
			}
		}
	}

	if *saveFile != "" {
		if err := dpgrid.WriteSynopsisFileFormat(*saveFile, syn, *saveFormat); err != nil {
			return err
		}
	}

	if *synthesize != 0 {
		n := *synthesize
		if n < 0 {
			n = 0 // the library's "use the synopsis's own estimate"
		}
		sampleSrc := dpgrid.NewNoiseSource(*seed + 1)
		var pts []dpgrid.Point
		var synthErr error
		switch v := syn.(type) {
		case *dpgrid.UniformGrid:
			pts, synthErr = v.Synthesize(n, sampleSrc)
		case *dpgrid.AdaptiveGrid:
			pts, synthErr = v.Synthesize(n, sampleSrc)
		default:
			return fmt.Errorf("-synthesize requires a ug or ag synopsis, have %T", syn)
		}
		if synthErr != nil {
			return synthErr
		}
		if err := datasets.WriteCSV(w, pts); err != nil {
			return err
		}
	}

	for _, q := range queries {
		fmt.Fprintf(w, "%s\t%.2f\n", q.spec, syn.Query(q.rect))
	}
	return nil
}

// querySpec pairs a query rectangle with the spec string it was parsed
// from, so answers echo the operator's own text.
type querySpec struct {
	spec string
	rect dpgrid.Rect
}

// loadQueries collects the workload from -query and -queries, validating
// every spec. Blank lines and #-comments in the file are skipped.
func loadQueries(single, file string) ([]querySpec, error) {
	var specs []string
	if single != "" {
		specs = append(specs, single)
	}
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		scanner := bufio.NewScanner(f)
		for scanner.Scan() {
			line := strings.TrimSpace(scanner.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			specs = append(specs, line)
		}
		if err := scanner.Err(); err != nil {
			return nil, err
		}
	}
	out := make([]querySpec, len(specs))
	for i, spec := range specs {
		q, err := parseFloats(spec, 4)
		if err != nil {
			return nil, fmt.Errorf("bad query %q: %w", spec, err)
		}
		// strconv.ParseFloat happily parses "NaN" and "Inf", and NewRect
		// cannot normalize NaN (comparisons are false) — gate them here
		// instead of letting garbage into the synopsis query path.
		r := dpgrid.NewRect(q[0], q[1], q[2], q[3])
		if !r.IsValid() {
			return nil, fmt.Errorf("bad query %q: coordinates must be finite", spec)
		}
		out[i] = querySpec{spec: spec, rect: r}
	}
	return out, nil
}

func parseFloats(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d comma-separated numbers, got %d", n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out[i] = v
	}
	return out, nil
}
