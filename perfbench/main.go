// Command perfbench is the repository's end-to-end benchmark. For one
// workload it builds a release with the dpgrid CLI, serves it with
// dpserve (one process, or two backends behind a dpserve -cluster
// router), sends seeded requests from one closed-loop caller over a
// keep-alive connection, checks every served answer against the
// in-process answer of the same release file, and prints the metrics
// BENCHMARK.json names. perfbench/run.sh builds the binaries and runs
// it; perfbench/README.md documents the workloads and metrics.
//
//	perfbench -workload serve-hot -seed 3 -seconds 30 -trace 0
//	perfbench compare <results dir A> <results dir B>
//
// The last line of standard output is the run's result:
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fingerprint identifies the host a run measured; compare refuses to
// mix runs from different hosts.
type fingerprint struct {
	CPUModel  string `json:"cpu_model"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
}

// record is the full account of one run, kept under
// .bench_build/results for compare.
type record struct {
	Workload      string         `json:"workload"`
	Seed          int64          `json:"seed"`
	Seconds       float64        `json:"seconds"`
	Trace         int            `json:"trace"`
	Host          fingerprint    `json:"host"`
	HostStealPct  float64        `json:"host_steal_pct"`
	GOMAXPROCS    map[string]int `json:"gomaxprocs"`
	ReleaseSHA256 string         `json:"release_sha256"`
	result
	Problems []string     `json:"problems,omitempty"`
	Warnings []string     `json:"warnings,omitempty"`
	Ladder   []ladderRung `json:"ladder_us_per_request,omitempty"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout to run in; binaries come from <root>/.bench_build/bin and all files stay under <root>/.bench_build")
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the run's inputs (request and rect streams, evaluation rects)")
	secs := fs.Float64("seconds", 30, "how long the run measures (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		return compareMain(fs.Args()[1:], stdout)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	debug.SetMemoryLimit(1 << 30)
	out := filepath.Join(*root, ".bench_build")
	b := &bench{
		w: w, seed: *seed, secs: *secs, nproc: nproc,
		bin:     filepath.Join(out, "bin"),
		data:    filepath.Join(out, "data"),
		work:    filepath.Join(out, "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		gomax:   map[string]int{"perfbench-driver": nproc},
		metrics: make(map[string]float64),
	}
	specs := endToEnd
	if *trace == 1 {
		b.tr = newTracer()
		specs = perLayer
		for _, s := range perLayer {
			b.metrics[s.name] = 0
		}
	}
	for _, dir := range []string{b.data, b.work} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	defer os.RemoveAll(b.work)

	// An interrupt must not leave dpserve processes behind, and neither
	// may a reader of the output that went away: the write fails instead
	// of killing the process before it stops its children.
	signal.Ignore(syscall.SIGPIPE)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		b.procs.stopAll()
		os.RemoveAll(b.work)
		os.Exit(1)
	}()

	stealPct, err := b.runWatchingSteal()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *secs, Trace: *trace,
		Host: fingerprintNow(nproc), HostStealPct: stealPct, GOMAXPROCS: b.gomax, ReleaseSHA256: b.releaseSHA,
		result: result{
			Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed,
			Metrics: make(map[string]metricValue),
		},
		Problems: b.problems, Warnings: b.warnings, Ladder: b.ladder,
	}
	for _, s := range specs {
		v, ok := b.metrics[s.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", s.name)
			return 1
		}
		rec.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if err := b.writeOutputs(out, &rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printSummary(os.Stderr, &rec, specs)
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// maxStealPct is the host CPU steal above which a run carries a warning.
// Steal is time the hypervisor gave the host's CPUs to other guests; at
// 8% over a run, serve-batch-cold's p99 latency doubled and its p50 rose
// by 15%.
const maxStealPct = 2

// runWatchingSteal runs the workload and returns the share of the host's
// CPU time stolen by other guests meanwhile, in percent, warning above
// maxStealPct: the run's timings then measure the host as much as the
// program.
func (b *bench) runWatchingSteal() (float64, error) {
	steal0, total0, err := hostCPUTicks()
	if err != nil {
		return 0, err
	}
	if err := b.run(); err != nil {
		return 0, err
	}
	steal1, total1, err := hostCPUTicks()
	if err != nil {
		return 0, err
	}
	pct := 100 * float64(steal1-steal0) / float64(max(1, total1-total0))
	if pct > maxStealPct {
		b.warnings = append(b.warnings, fmt.Sprintf("host CPU steal %.1f%% during the run: other guests took CPU time, so timings read slow", pct))
	}
	return pct, nil
}

// writeOutputs keeps the run's record, and in traced runs its spans.
func (b *bench) writeOutputs(out string, rec *record) error {
	dir := filepath.Join(out, "results", rec.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed%d-trace%d.json", rec.Seed, rec.Trace))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	if data, err = b.tr.marshal(rec.Workload, rec.Seed, b.ladder); err != nil {
		return err
	}
	tdir := filepath.Join(out, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", rec.Workload, rec.Seed)), data, 0o644)
}

func printSummary(w io.Writer, rec *record, specs []metricSpec) {
	fmt.Fprintf(w, "perfbench: %s seed %d: correct=%v attempted=%d failed=%d host steal %.2f%% release sha256 %s\n",
		rec.Workload, rec.Seed, rec.Correct, rec.Attempted, rec.Failed, rec.HostStealPct, rec.ReleaseSHA256)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", s.name, rec.Metrics[s.name].Value, s.unit)
	}
	for _, r := range rec.Ladder {
		fmt.Fprintf(w, "  ladder %-3s %-42s %10.2f us/req (step %+.2f)\n", r.Rung, r.Layer, r.US, r.StepU)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	for _, p := range rec.Warnings {
		fmt.Fprintln(w, "  warning:", p)
	}
}
