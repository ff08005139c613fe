package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/atomicfile"
	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/pointindex"
	"github.com/dpgrid/dpgrid/internal/query"
)

// bench is the state of one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	secs    float64
	bin     string // directory with the dpgrid and dpserve binaries
	data    string // dataset CSV cache directory
	work    string // scratch directory of this run, removed at its end
	tr      *tracer
	procs   procSet
	nproc   int
	gomax   map[string]int // GOMAXPROCS of every process role
	dset    *datasets.Dataset
	csv     string
	release string          // release file path
	synName string          // name the release is served under
	syn     dpgrid.Synopsis // the release loaded in-process the way dpserve loads it
	rects   *rectSource

	backendPorts []int
	placement    string

	metrics    map[string]float64
	attempted  int
	failed     int
	problems   []string // reasons the run is not correct
	warnings   []string // reasons the run's figures are suspect
	releaseSHA string
	buildWalls []float64 // wall seconds of every CLI build
	buildCPU   []float64 // user + system seconds of every CLI build
	buildRSS   []float64 // peak RSS in MB of every CLI build
	ladder     []ladderRung
}

func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.secs * float64(time.Second))
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// run executes the workload's phases in order. Untraced runs fill the
// end-to-end metrics, traced runs the per-layer ones.
func (b *bench) run() error {
	defer b.procs.stopAll()
	if err := b.prepareData(); err != nil {
		return err
	}
	cliWall, err := b.releasePhase()
	if err != nil {
		return err
	}
	if err := b.loadInProcess(); err != nil {
		return err
	}
	if b.tr != nil {
		if err := b.ingestLayers(cliWall); err != nil {
			return err
		}
		b.inProcessLayers()
	}
	front, err := b.coldStarts()
	if err != nil {
		return err
	}
	if err := b.evalPhase(front); err != nil {
		return err
	}
	if err := b.servePhases(front); err != nil {
		return err
	}
	b.releaseMetrics()
	return nil
}

// prepareData generates the workload's dataset in memory and makes sure
// its CSV exists in the cache.
func (b *bench) prepareData() error {
	d, err := datasets.ByName(b.w.dataset, 1, datasetSeed)
	if err != nil {
		return err
	}
	b.dset = d
	b.rects = newRectSource(b.w, d, b.seed)
	b.csv = filepath.Join(b.data, fmt.Sprintf("%s-g%d.csv", d.Name, datasetSeed))
	if _, err := os.Stat(b.csv); err == nil {
		return nil
	}
	b.logf("writing %s (%d points)", b.csv, d.N())
	return atomicfile.Write(b.csv, func(w io.Writer) error { return datasets.WriteCSV(w, d.Points) })
}

func (b *bench) cliArgs(save string) []string {
	dom := b.dset.Domain
	args := []string{
		"-in", b.csv,
		"-domain=" + fmt.Sprintf("%v,%v,%v,%v", dom.MinX, dom.MinY, dom.MaxX, dom.MaxY),
		"-method", "ag", "-eps", strconv.FormatFloat(releaseEps, 'g', -1, 64),
		"-seed", strconv.FormatInt(releaseNoiseSeed, 10),
		"-format", "binary", "-save", save,
	}
	if b.w.shards != "" {
		args = append(args, "-shards", b.w.shards)
	}
	return args
}

// releasePhase builds the workload's release with the dpgrid CLI. It
// returns the build's wall time, the one the traced split divides.
func (b *bench) releasePhase() (float64, error) {
	b.release = filepath.Join(b.work, "release.dpgrid")
	b.synName = b.w.dataset
	b.gomax["dpgrid"] = b.nproc
	if err := b.build(b.release); err != nil {
		return 0, err
	}
	fi, err := os.Stat(b.release)
	if err != nil {
		return 0, err
	}
	b.metrics["release_bytes"] = float64(fi.Size())
	return b.buildWalls[0], nil
}

// builds repeats the CLI build n times, into a file beside the release
// that the servers load. An untraced run spreads its builds over its
// rounds; release_s is the median of them all (see releaseMetrics).
func (b *bench) builds(n int) error {
	for i := 0; i < n; i++ {
		if err := b.build(filepath.Join(b.work, "rebuild.dpgrid")); err != nil {
			return err
		}
	}
	return nil
}

// build runs the dpgrid CLI once, saving to path, and records its wall
// time and peak RSS. Every build must produce the release's bytes.
func (b *bench) build(path string) error {
	cmd := exec.Command(filepath.Join(b.bin, "dpgrid"), b.cliArgs(path)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(b.nproc))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	b.attempted++
	if err != nil {
		b.failed++
		return fmt.Errorf("dpgrid: %v: %s", err, stderr.String())
	}
	b.buildWalls = append(b.buildWalls, wall.Seconds())
	b.buildRSS = append(b.buildRSS, float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss)/1024)
	b.buildCPU = append(b.buildCPU, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	sum, err := fileSHA256(path)
	if err != nil {
		return err
	}
	if b.releaseSHA != "" && sum != b.releaseSHA {
		b.failed++
		b.problem("dpgrid released different bytes for the same seed (%s then %s)", b.releaseSHA, sum)
	}
	if b.releaseSHA == "" {
		b.releaseSHA = sum
	}
	return nil
}

// releaseMetrics sets release_s to the median build and
// release_peak_rss_mb to the median of the builds' peak RSS. Over five
// seeds on each workload the median of 10 builds spread 0.03-0.12 of
// itself from run to run, the fastest build 0.11-0.15: the host's speed
// drifts for seconds at a time, and the fastest build reads whichever
// build caught the quickest moment.
func (b *bench) releaseMetrics() {
	b.metrics["release_s"] = median(b.buildWalls)
	b.metrics["release_peak_rss_mb"] = median(b.buildRSS)
	b.logf("%d builds: wall min %.4f s, median %.4f s; cpu min %.4f s, median %.4f s",
		len(b.buildWalls), slices.Min(b.buildWalls), median(b.buildWalls), slices.Min(b.buildCPU), median(b.buildCPU))
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// loadInProcess loads the release the way dpserve does (memory-mapped
// under -mmap, lazily otherwise); its answers are the reference every
// served answer must equal.
func (b *bench) loadInProcess() error {
	var err error
	if b.w.mmap {
		b.syn, err = dpgrid.MapSynopsisFile(b.release)
	} else {
		b.syn, err = dpgrid.ReadSynopsisFileLazy(b.release)
	}
	return err
}

func answers(s dpgrid.Synopsis, rects []dpgrid.Rect) []float64 {
	out := make([]float64, len(rects))
	for i, r := range rects {
		out[i] = s.Query(r)
	}
	return out
}

func (b *bench) fullDomain() []dpgrid.Rect {
	return []dpgrid.Rect{b.dset.Domain.Rect}
}

// startServing starts the workload's deployment: one dpserve, or two
// backends and a router whose placement gives each backend one column
// half of the mosaic. It returns the process clients
// talk to and every process started.
func (b *bench) startServing() (front *proc, all []*proc, err error) {
	logPath := filepath.Join(b.work, "dpserve.log")
	spec := b.synName + "=" + b.release
	dpserve := filepath.Join(b.bin, "dpserve")
	start := func(name string, gomaxprocs, port int, args ...string) error {
		p, err := b.procs.start(name, dpserve, append([]string{"-listen", b.host(port)}, args...), gomaxprocs, port, logPath)
		if err != nil {
			return err
		}
		b.gomax[name] = gomaxprocs
		all = append(all, p)
		return nil
	}
	frontProcs := b.nproc
	if b.w.cluster {
		// Three dpserve processes share the host with the driver. With
		// one P each, no server's idle Ps spin for work on CPUs the
		// others need (latency p50 spread 0.27 over five seeds with a 2-P
		// router on a 2-CPU host).
		frontProcs = 1
	}
	if b.w.cluster && b.placement == "" {
		if err := b.writePlacement(); err != nil {
			return nil, nil, err
		}
	}
	for i, port := range b.backendPorts {
		// One P per backend: four Go processes share the host's CPUs.
		if err := start(fmt.Sprintf("dpserve-backend%d", i), 1, port, "-readonly", "-synopsis", spec); err != nil {
			return nil, all, err
		}
	}
	port, err := freePort()
	if err != nil {
		return nil, all, err
	}
	switch {
	case b.w.cluster:
		err = start("dpserve-router", frontProcs, port, "-cluster", "-placement", b.placement)
	case b.w.mmap:
		err = start("dpserve", frontProcs, port, "-readonly", "-synopsis", spec, "-mmap")
	default:
		err = start("dpserve", frontProcs, port, "-readonly", "-synopsis", spec)
	}
	if err != nil {
		return nil, all, err
	}
	return all[len(all)-1], all, nil
}

func (b *bench) writePlacement() error {
	plan, ok := b.syn.(dpgrid.ShardRouter)
	if !ok {
		return fmt.Errorf("cluster workload needs a sharded release, have %T", b.syn)
	}
	kx, _ := plan.Plan().Dims()
	type assignment struct {
		Node  string `json:"node"`
		Tiles []int  `json:"tiles"`
	}
	halves := []assignment{{Node: "backend0"}, {Node: "backend1"}}
	for t := 0; t < plan.NumShards(); t++ {
		h := 0
		if t%kx >= kx/2 {
			h = 1
		}
		halves[h].Tiles = append(halves[h].Tiles, t)
	}
	var nodes []map[string]string
	for i := range halves {
		port, err := freePort()
		if err != nil {
			return err
		}
		b.backendPorts = append(b.backendPorts, port)
		nodes = append(nodes, map[string]string{"name": halves[i].Node, "url": fmt.Sprintf("http://127.0.0.1:%d", port)})
	}
	dom := b.dset.Domain
	data, err := json.MarshalIndent(map[string]any{
		"version": 1,
		"nodes":   nodes,
		"releases": []map[string]any{{
			"synopsis":    b.synName,
			"domain":      [4]float64{dom.MinX, dom.MinY, dom.MaxX, dom.MaxY},
			"tiles":       b.w.shards,
			"assignments": halves,
		}},
	}, "", " ")
	if err != nil {
		return err
	}
	b.placement = filepath.Join(b.work, "placement.json")
	return os.WriteFile(b.placement, data, 0o644)
}

// waitReady polls GET /readyz on p until it answers 200.
func waitReady(client *http.Client, p *proc) error {
	url := fmt.Sprintf("http://127.0.0.1:%d/readyz", p.port)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up", p.name)
		default:
		}
		if resp, err := client.Get(url); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("%s not ready after 60s", p.name)
}

// coldStart execs the serving processes and returns the time until every
// /readyz answered 200 and a full-domain query came back correct; the
// full-domain rect touches every tile, so lazy shard loading is done by
// then.
func (b *bench) coldStart() (time.Duration, *proc, []*proc, error) {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	want := answers(b.syn, b.fullDomain())
	t0 := time.Now()
	front, all, err := b.startServing()
	if err != nil {
		return 0, nil, all, err
	}
	for _, p := range all {
		if err := waitReady(client, p); err != nil {
			return 0, nil, all, fmt.Errorf("%w\n%s", err, b.logTail())
		}
	}
	d := newDriver(fmt.Sprintf("127.0.0.1:%d", front.port))
	defer d.close()
	_, _, fail := d.do(encodeQuery(b.host(front.port), "/v1/query", b.synName, b.fullDomain()), want)
	took := time.Since(t0)
	b.attempted++
	if fail != failNone {
		b.failed++
		b.problem("full-domain answer after cold start failed (kind %d)", fail)
	}
	return took, front, all, nil
}

// coldStarts measures setup_s as the median of the workload's cold
// starts; the last instance stays up and serves the rest of the run.
func (b *bench) coldStarts() (*serving, error) {
	n := b.w.coldStarts
	if b.tr != nil {
		n = 1
	}
	var times []time.Duration
	for i := 0; i < n; i++ {
		took, front, all, err := b.coldStart()
		if err != nil {
			return nil, err
		}
		times = append(times, took)
		if i == n-1 {
			b.metrics["setup_s"] = medianDuration(times)
			return &serving{front: front, all: all}, nil
		}
		for _, p := range all {
			b.procs.stop(p)
		}
	}
	panic("unreachable")
}

// serving is the live deployment the serve phases drive.
type serving struct {
	front *proc
	all   []*proc
}

func (s *serving) addr() string { return fmt.Sprintf("127.0.0.1:%d", s.front.port) }

func (b *bench) host(port int) string { return fmt.Sprintf("127.0.0.1:%d", port) }

func (b *bench) logTail() string {
	data, _ := os.ReadFile(filepath.Join(b.work, "dpserve.log"))
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// evalPhase sends the evaluation set through the deployment in batches
// and computes rel_error_median from the served answers against exact
// counts over the generated points.
func (b *bench) evalPhase(s *serving) error {
	const perClass, batch = 2000, 250
	rects := evalRects(b.dset, b.seed, perClass)
	idx, err := pointindex.New(b.dset.Domain, b.dset.Points)
	if err != nil {
		return err
	}
	rho := query.Rho(b.dset.N())
	d := newDriver(s.addr())
	defer d.close()
	var errs []float64
	for i := 0; i < len(rects); i += batch {
		part := rects[i:min(i+batch, len(rects))]
		want := answers(b.syn, part)
		_, body, fail := d.do(encodeQuery(b.host(s.front.port), "/v1/query", b.synName, part), want)
		b.attempted++
		if fail != failNone {
			b.failed++
			b.problem("evaluation batch %d failed (kind %d)", i/batch, fail)
			continue
		}
		var r queryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		for j, rect := range part {
			errs = append(errs, query.RelativeError(r.Counts[j], float64(idx.Count(rect)), rho))
		}
	}
	if len(errs) == 0 {
		return fmt.Errorf("no evaluation batch succeeded")
	}
	b.metrics["rel_error_median"] = median(errs)
	b.dset.Points = nil // nothing later needs the points; keep the heap small under load
	return nil
}

// prepare turns requests' rects into wire requests with expected
// answers. The Host header names no port, so the same bytes serve every
// deployment of a run.
func (b *bench) prepare(reqs [][]dpgrid.Rect) []reqSpec {
	out := make([]reqSpec, len(reqs))
	for i, rects := range reqs {
		out[i] = reqSpec{wire: encodeQuery("127.0.0.1", "/v1/query", b.synName, rects), want: answers(b.syn, rects)}
	}
	return out
}

// scrape reads a process's /metrics into series -> value.
func scrape(p *proc) (map[string]float64, error) {
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", p.port))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeAll merges the /metrics of every process; series of the same
// name add up.
func scrapeAll(ps []*proc) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range ps {
		m, err := scrape(p)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// family sums every series of metric name, whatever its labels.
func family(m map[string]float64, name string) float64 {
	var total float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// deltaMean returns the mean observation of histogram name between two
// scrapes, or 0 without observations.
func deltaMean(before, after map[string]float64, name string) float64 {
	n := family(after, name+"_count") - family(before, name+"_count")
	if n <= 0 {
		return 0
	}
	return (family(after, name+"_sum") - family(before, name+"_sum")) / n
}

func delta(before, after map[string]float64, name string) float64 {
	return family(after, name) - family(before, name)
}

func fingerprintNow(nproc int) fingerprint {
	fp := fingerprint{NProc: nproc, GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if v, err := cpuinfoField(data, "model name"); err == nil {
			fp.CPUModel = v
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	return fp
}

func cpuinfoField(data []byte, key string) (string, error) {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %q in cpuinfo", key)
}
