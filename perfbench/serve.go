package main

import (
	"context"
	"fmt"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/cluster"
)

const (
	// warmup runs the driver on each deployment before its timed phase,
	// so connection set-up and the answer cache's hot rects settle
	// untimed.
	warmup = 250 * time.Millisecond
	// ladderRequests is how many requests of the latency stream the
	// unloaded ladder replays.
	ladderRequests = 400
	// minLoop is the least time an in-process ladder rung loops for.
	minLoop = 100 * time.Millisecond
)

// latencyResult is one latency phase: the driver's view plus the
// serving processes' counters over exactly that phase.
type latencyResult struct {
	st            phaseStats
	procs         procSnap
	before, after map[string]float64
	newConns      int64 // TCP connections the router opened (cluster only)
	reqBytes      int64
}

func (f *latencyResult) completed() float64 { return float64(f.st.attempted - f.st.failed) }

// count adds a phase's operations to the run totals and records why
// any failed ones make the run incorrect.
func (b *bench) count(name string, st phaseStats) {
	b.attempted += st.attempted
	b.failed += st.failed
	if st.mismatches > 0 {
		b.problem("%s: %d served answers differ from the in-process answers", name, st.mismatches)
	}
	if st.partials > 0 {
		b.problem("%s: %d partial answers", name, st.partials)
	}
	if other := st.failed - st.mismatches - st.partials; other > 0 {
		b.problem("%s: %d requests failed", name, other)
	}
}

// stream is a cycle of prepared requests a closed loop walks through,
// with the answers already checked (see closedLoop).
type stream struct {
	reqs  []reqSpec
	valid [][]byte
	next  int // index of the next request to send
}

func (b *bench) newStream(fork uint64) *stream {
	reqs := b.prepare(b.rects.requests(seedSource(b.seed, fork), b.w.distinctRequests()))
	return &stream{reqs: reqs, valid: make([][]byte, len(reqs))}
}

// loop runs d closed-loop over the stream for dur, continuing where the
// stream's last phase stopped.
func (st *stream) loop(d *driver, dur time.Duration, reqID0 int64) []outcome {
	out := d.closedLoop(st.reqs, st.next, dur, st.valid, reqID0)
	st.next += len(out)
	return out
}

// latencyPhase runs the one-caller loop over st and reads the serving
// processes' counters before and after.
func (b *bench) latencyPhase(s *serving, d *driver, st *stream, dur time.Duration, reqID0 int64) (*latencyResult, error) {
	f := &latencyResult{}
	var err error
	if f.before, err = scrapeAll(s.all); err != nil {
		return nil, err
	}
	snap0, err := snapProcs(s.all)
	if err != nil {
		return nil, err
	}
	opens0, err := activeOpens()
	if err != nil {
		return nil, err
	}
	dialed0 := d.dialed
	first := st.next
	out := st.loop(d, dur, reqID0)
	opens1, err := activeOpens()
	if err != nil {
		return nil, err
	}
	if b.w.cluster {
		// Only the driver and the router open connections during the
		// phase.
		f.newConns = opens1 - opens0 - (d.dialed - dialed0)
	}
	snap1, err := snapProcs(s.all)
	if err != nil {
		return nil, err
	}
	if f.after, err = scrapeAll(s.all); err != nil {
		return nil, err
	}
	for i := range out {
		f.reqBytes += int64(len(st.reqs[(first+i)%len(st.reqs)].wire))
	}
	f.procs = snap1.sub(snap0)
	f.st = summarize(out)
	return f, nil
}

// servePhases runs either the measured rounds (untraced) or one latency
// phase and the per-layer measurements (traced).
func (b *bench) servePhases(s *serving) error {
	warm := b.newStream(forkWarmup)
	lat := b.newStream(forkLatency)
	latDur := b.phase(b.w.latencyShare)
	if b.tr == nil {
		return b.rounds(s, warm, lat, latDur)
	}
	d := b.connect(s, warm)
	defer d.close()
	// The traced run has a second latency phase with spans on; the two
	// share the untraced run's time.
	fx, err := b.latencyPhase(s, d, lat, latDur/2, 1_000_000_000)
	if err != nil {
		return err
	}
	b.count("latency phase", fx.st)
	if err := b.servingLayers(s, d, fx); err != nil {
		return err
	}
	b.checkDialed(d)
	return b.notePeakRSS(s)
}

// connect returns a one-caller driver to the deployment, warmed up on
// warm.
func (b *bench) connect(s *serving, warm *stream) *driver {
	d := newDriver(s.addr())
	b.count("warm-up", summarize(warm.loop(d, warmup, 0)))
	return d
}

func (b *bench) checkDialed(d *driver) {
	if d.dialed > 1 {
		b.warnings = append(b.warnings, fmt.Sprintf("driver dialed %d connections for its one caller", d.dialed))
	}
}

// notePeakRSS raises server_peak_rss_mb to the largest peak RSS of the
// deployment's processes.
func (b *bench) notePeakRSS(s *serving) error {
	for _, p := range s.all {
		kb, err := peakRSSKB(p.pid())
		if err != nil {
			return err
		}
		b.metrics["server_peak_rss_mb"] = max(b.metrics["server_peak_rss_mb"], float64(kb)/1024)
	}
	return nil
}

// rounds is how many slices an untraced run cuts its latency phase and
// its repeated builds into. A round runs one slice of each on a fresh
// deployment, so every end-to-end figure draws on the whole run and on
// several deployments. The host slowed down for seconds at a time, and
// a slowdown costs a share of each figure's windows or builds, which
// its lower quartile or median leaves out. And a deployment's latency
// and CPU per request depend on where the scheduler happens to place its
// processes and the driver for the deployment's life: four runs of one
// seed on one deployment each read p50 0.35, 0.34, 0.43 and 0.42 ms on
// cluster-2node, while the builds between them took the same time.
const rounds = 8

// rounds runs the untraced measurements in rounds (see the constant):
// a deployment's warm-up and slice of the one-caller latency phase, then
// a build. The first round runs on the deployment the cold starts left
// up; each later one restarts the deployment.
func (b *bench) rounds(s *serving, warm, lat *stream, latDur time.Duration) error {
	var latOut []outcome
	var cpu procSnap
	for i := 0; i < rounds; i++ {
		if i > 0 {
			for _, p := range s.all {
				b.procs.stop(p)
			}
			_, front, all, err := b.coldStart()
			if err != nil {
				return err
			}
			s = &serving{front: front, all: all}
		}
		d := b.connect(s, warm)
		snap0, err := snapProcs(s.all)
		if err != nil {
			return err
		}
		latOut = append(latOut, lat.loop(d, latDur/rounds, 0)...)
		snap1, err := snapProcs(s.all)
		if err != nil {
			return err
		}
		cpu = cpu.add(snap1.sub(snap0))
		b.checkDialed(d)
		d.close()
		if err := b.notePeakRSS(s); err != nil {
			return err
		}
		if err := b.builds(1); err != nil {
			return err
		}
	}
	st := summarize(latOut)
	b.count("latency phase", st)
	b.logf("latency phase: %d requests over %d deployments", st.attempted, rounds)
	m := b.metrics
	m["latency_p50_ms"] = st.p50.Seconds() * 1e3
	m["latency_p90_ms"] = st.p90.Seconds() * 1e3
	m["server_cpu_us_per_req"] = float64(cpu.cpuNs) / 1e3 / float64(st.attempted-st.failed)
	return nil
}

// servingLayers fills the serving side of the per-layer metrics: the
// counters of the latency phase, a second latency phase with request
// spans on (the tracing overhead), and the unloaded ladder
// L0 -> L1 -> (L5) -> L2 -> L4 on the first requests of the stream.
func (b *bench) servingLayers(s *serving, d *driver, fx *latencyResult) error {
	n := fx.completed()
	m := b.metrics
	m["dpserve.cpu_user_us_per_req"] = float64(fx.procs.userTicks) * 1e6 / clockTicksPerSecond / n
	m["dpserve.cpu_sys_us_per_req"] = float64(fx.procs.sysTicks) * 1e6 / clockTicksPerSecond / n
	m["dpserve.ctx_switches_per_req"] = float64(fx.procs.switches) / n
	m["dpserve.req_bytes"] = float64(fx.reqBytes) / float64(fx.st.attempted)
	m["dpserve.resp_bytes"] = float64(fx.st.respBytes) / float64(fx.st.attempted)
	hits := delta(fx.before, fx.after, "dpserve_cache_hits_total")
	misses := delta(fx.before, fx.after, "dpserve_cache_misses_total")
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	m["shard.fanout_mean"] = deltaMean(fx.before, fx.after, "dpserve_shard_fanout")
	m["shard.materializations_timed"] = delta(fx.before, fx.after, "dpserve_lazy_materializations_total")
	m["cluster.backend_us"] = deltaMean(fx.before, fx.after, "dpserve_cluster_backend_seconds") * 1e6
	m["cluster.fanout_backends_mean"] = deltaMean(fx.before, fx.after, "dpserve_cluster_fanout_backends")
	m["cluster.backend_conns_per_kreq"] = float64(fx.newConns) * 1000 / n
	m["cluster.retries"] = delta(fx.before, fx.after, "dpserve_cluster_backend_errors_total")
	m["cluster.failovers"] = delta(fx.before, fx.after, "dpserve_cluster_tile_failovers_total")
	m["cluster.partials"] = delta(fx.before, fx.after, "dpserve_cluster_partial_answers_total") + float64(fx.st.partials)

	// The same phase again on a fresh stream, with a span per request.
	traced := b.newStream(forkTraced)
	d.tr = b.tr
	tx, err := b.latencyPhase(s, d, traced, b.phase(b.w.latencyShare)/2, 2_000_000_000)
	d.tr = nil
	if err != nil {
		return err
	}
	b.count("traced latency phase", tx.st)
	m["trace.overhead_pct"] = (tx.st.p50.Seconds()/fx.st.p50.Seconds() - 1) * 100
	m["shard.materializations_timed"] += delta(tx.before, tx.after, "dpserve_lazy_materializations_total")
	m["driver.conns_opened"] = float64(d.dialed)
	return b.unloadedLadder(s, b.prepare(b.ladderRects()))
}

// ladderRects is the request stream of the layer ladder: the first
// ladderRequests requests of the latency stream.
func (b *bench) ladderRects() [][]dpgrid.Rect {
	return b.rects.requests(seedSource(b.seed, forkLatency), ladderRequests)
}

// inProcessLayers times the two in-process rungs of the layer ladder on
// its request stream. It runs at GOMAXPROCS = nproc, as dpserve does,
// so QueryBatch takes the parallel path of internal/pool on batches.
func (b *bench) inProcessLayers() {
	arrs := b.ladderRects()
	var flat []dpgrid.Rect
	for _, a := range arrs {
		flat = append(flat, a...)
	}
	m := b.metrics

	// L0: Synopsis.Query, serially over every rect of the stream.
	sp := b.tr.begin("grid.query", noParent, -1)
	var rectsDone int
	t0 := time.Now()
	for time.Since(t0) < minLoop {
		for _, r := range flat {
			sink += b.syn.Query(r)
		}
		rectsDone += len(flat)
	}
	l0 := time.Since(t0)
	b.tr.end(sp, rectsDone)
	m["grid.query_ns"] = float64(l0.Nanoseconds()) / float64(rectsDone)

	// L1: dpgrid.QueryBatch, one call per request.
	sp = b.tr.begin("pool.batch", noParent, -1)
	var batches int
	t0 = time.Now()
	for time.Since(t0) < minLoop {
		for _, a := range arrs {
			sink += dpgrid.QueryBatch(b.syn, a, 0)[0]
		}
		batches += len(arrs)
	}
	l1 := time.Since(t0)
	b.tr.end(sp, batches)
	m["pool.batch_us"] = l1.Seconds() * 1e6 / float64(batches)
	m["pool.overhead_ratio"] = m["pool.batch_us"] * 1e3 / (float64(b.w.rects) * m["grid.query_ns"])
}

// unloadedLadder times the request stream of the layer ladder at each
// serving depth, one request at a time, and records the ladder per
// request; inProcessLayers has timed L0 and L1 already.
func (b *bench) unloadedLadder(s *serving, reqs []reqSpec) error {
	arrs := b.ladderRects()
	m := b.metrics

	// L5 (cluster only): an in-process router over the live backends.
	if b.w.cluster {
		p, err := cluster.LoadPlacement(b.placement)
		if err != nil {
			return err
		}
		r := cluster.NewRouter(p, cluster.Options{ProbeInterval: -1}, nil)
		var total time.Duration
		for i, a := range arrs {
			sp := b.tr.begin("cluster.router", noParent, 3_000_000+int64(i))
			t := time.Now()
			res, err := r.Query(context.Background(), b.synName, a)
			total += time.Since(t)
			b.tr.end(sp, 1)
			b.attempted++
			if err != nil || res.Partial || !equalAnswers(res.Counts, reqs[i].want) {
				b.failed++
				b.problem("in-process router answer %d differs or failed (%v)", i, err)
			}
		}
		r.Close()
		m["cluster.router_us"] = total.Seconds() * 1e6 / float64(len(arrs))
	}

	// L2 and L4: the deployment's front over one connection, one request
	// in flight; L2 is the front's own request histogram over the same
	// requests.
	before, err := scrape(s.front)
	if err != nil {
		return err
	}
	d := newDriver(s.addr())
	defer d.close()
	var rtt time.Duration
	for i, r := range reqs {
		sp := b.tr.begin("dpserve.http", noParent, 4_000_000+int64(i))
		took, _, fail := d.do(r.wire, r.want)
		b.tr.end(sp, 1)
		rtt += took
		b.attempted++
		if fail != failNone {
			b.failed++
			b.problem("unloaded request %d failed (kind %d)", i, fail)
		}
	}
	after, err := scrape(s.front)
	if err != nil {
		return err
	}
	hist := "dpserve_query_request_seconds"
	if b.w.cluster {
		hist = "dpserve_router_request_seconds"
	}
	m["dpserve.answer_us"] = deltaMean(before, after, hist) * 1e6
	m["dpserve.rtt_unloaded_us"] = rtt.Seconds() * 1e6 / float64(len(reqs))
	m["dpserve.http_json_us"] = m["dpserve.rtt_unloaded_us"] - m["dpserve.answer_us"]

	b.ladder = nil
	rung := func(name, layer string, us float64) {
		step := us
		if len(b.ladder) > 0 {
			step = us - b.ladder[len(b.ladder)-1].US
		}
		b.ladder = append(b.ladder, ladderRung{Rung: name, Layer: layer, US: us, StepU: step})
	}
	rung("L0", "Synopsis.Query x rects", m["grid.query_ns"]*float64(b.w.rects)/1e3)
	rung("L1", "dpgrid.QueryBatch", m["pool.batch_us"])
	if b.w.cluster {
		rung("L5", "cluster.Router.Query over live backends", m["cluster.router_us"])
		rung("L2", "router request histogram", m["dpserve.answer_us"])
	} else {
		rung("L2", "dpserve request histogram", m["dpserve.answer_us"])
	}
	rung("L4", "loopback HTTP round trip", m["dpserve.rtt_unloaded_us"])
	return nil
}

// sink keeps in-process query loops from being optimized away.
var sink float64

func equalAnswers(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
