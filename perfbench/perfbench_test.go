package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/datasets"
)

// The expected values come from Python 3.11:
// statistics.quantiles(xs, n=4) and statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 5.5}, 1.2, 3.1, 5.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 200; i++ {
		ds = append(ds, time.Duration(i))
	}
	if got := percentile(ds, 50); got != 100 {
		t.Errorf("p50 = %v, want 100", got)
	}
	if got := percentile(ds, 99); got != 198 {
		t.Errorf("p99 = %v, want 198", got)
	}
}

func smallDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	d, err := datasets.ByName("storage", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Every request and rect stream is a function of the seed alone: the
// same seed reproduces it exactly, another seed does not.
func TestStreamsAreSeedDeterministic(t *testing.T) {
	d := smallDataset(t)
	for _, w := range workloads {
		draw := func(seed int64) ([][]dpgrid.Rect, []dpgrid.Rect) {
			rs := newRectSource(w, d, seed)
			return rs.requests(seedSource(seed, forkLatency), 500), evalRects(d, seed, 10)
		}
		a1, e1 := draw(7)
		a2, e2 := draw(7)
		if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(e1, e2) {
			t.Errorf("%s: seed 7 drew two different inputs", w.name)
		}
		b1, f1 := draw(8)
		if reflect.DeepEqual(a1, b1) || reflect.DeepEqual(e1, f1) {
			t.Errorf("%s: seeds 7 and 8 drew the same inputs", w.name)
		}
		for _, a := range a1 {
			if len(a) != w.rects {
				t.Fatalf("%s: request with %d rects, want %d", w.name, len(a), w.rects)
			}
		}
	}
}

// A closed loop's cycle holds four answer caches' worth of fresh rects,
// so only the hot rects can hit the cache.
func TestStreamsCycleOutOfTheCache(t *testing.T) {
	for _, w := range workloads {
		fresh := float64(w.distinctRequests() * w.rects)
		if w.stream == hotStream {
			fresh *= 1 - hotShare
		}
		if fresh < 4*4096 {
			t.Errorf("%s: %v fresh rects a cycle", w.name, fresh)
		}
	}
}

func TestStraddleRectsCrossTheMidline(t *testing.T) {
	d := smallDataset(t)
	mid := (d.Domain.MinX + d.Domain.MaxX) / 2
	src := seedSource(1, forkLatency)
	for i := 0; i < 1000; i++ {
		r := straddleRect(d, src)
		if !(r.MinX < mid && r.MaxX > mid) || r.MinY < d.Domain.MinY || r.MaxY > d.Domain.MaxY {
			t.Fatalf("rect %v does not straddle x=%v inside the domain", r, mid)
		}
	}
}

// A served answer that differs from the in-process one in any bit, a
// partial answer, and an error status each count as a failed request.
func TestDriverCountsWrongAnswersAsFailures(t *testing.T) {
	const want = 1234.5
	var reply string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch reply {
		case "status":
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case "partial":
			fmt.Fprintf(w, `{"synopsis":"s","counts":[%v],"partial":true,"missing_tiles":[3]}`, want)
		case "wrong":
			fmt.Fprintf(w, `{"synopsis":"s","counts":[%v]}`, 1234.5000000000002)
		default:
			fmt.Fprintf(w, `{"synopsis":"s","counts":[%v]}`, want)
		}
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	d := newDriver(host)
	defer d.close()
	req := reqSpec{wire: encodeQuery(host, "/v1/query", "s", []dpgrid.Rect{{MaxX: 1, MaxY: 1}}), want: []float64{want}}
	valid := make([][]byte, 1)
	for _, c := range []struct {
		reply string
		want  failKind
	}{{"ok", failNone}, {"wrong", failMismatch}, {"partial", failPartial}, {"status", failStatus}} {
		reply = c.reply
		out := d.closedLoop([]reqSpec{req}, 0, 20*time.Millisecond, valid, 0)
		if len(out) == 0 || out[0].fail != c.want {
			t.Fatalf("%s reply: outcomes %+v, want fail kind %d", c.reply, out, c.want)
		}
		st := summarize(out)
		if wantFailed := c.want != failNone; (st.failed == len(out)) != wantFailed || (st.failed == 0) == wantFailed {
			t.Errorf("%s reply: %d of %d failed", c.reply, st.failed, len(out))
		}
	}
	if d.dialed != 1 {
		t.Errorf("driver dialed %d connections, want 1", d.dialed)
	}
}

// In a closed loop an answer that once passed is accepted again only
// while its bytes are unchanged: a later wrong answer to the same
// request still fails.
func TestClosedLoopStillCatchesALaterWrongAnswer(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			fmt.Fprint(w, `{"synopsis":"s","counts":[2]}`)
			return
		}
		fmt.Fprint(w, `{"synopsis":"s","counts":[3]}`)
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	d := newDriver(host)
	defer d.close()
	reqs := []reqSpec{{wire: encodeQuery(host, "/v1/query", "s", []dpgrid.Rect{{MaxX: 1, MaxY: 1}}), want: []float64{2}}}
	out := d.closedLoop(reqs, 0, 50*time.Millisecond, make([][]byte, len(reqs)), 0)
	if len(out) < 5 {
		t.Fatalf("only %d requests in 50ms", len(out))
	}
	for i, o := range out {
		if want := i >= 3; (o.fail == failMismatch) != want {
			t.Errorf("request %d: fail kind %d", i, o.fail)
		}
	}
}

func TestDriverRedialsAfterServerCloses(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		fmt.Fprint(w, `{"synopsis":"s","counts":[1]}`)
	})}
	go srv.Serve(l)
	defer srv.Close()
	d := newDriver(l.Addr().String())
	defer d.close()
	req := reqSpec{wire: encodeQuery(l.Addr().String(), "/v1/query", "s", []dpgrid.Rect{{}}), want: []float64{1}}
	for i := 0; i < 3; i++ {
		if _, _, fail := d.do(req.wire, req.want); fail != failNone {
			t.Errorf("request %d failed with kind %d", i, fail)
		}
	}
	if d.dialed != 3 {
		t.Errorf("dialed %d times, want one per closed connection (3)", d.dialed)
	}
}

func TestActiveOpensCountsADial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before, err := activeOpens()
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	after, err := activeOpens()
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 1 {
		t.Errorf("ActiveOpens went from %d to %d across a dial", before, after)
	}
}

func TestHostCPUTicksAdvance(t *testing.T) {
	steal0, total0, err := hostCPUTicks()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		steal1, total1, err := hostCPUTicks()
		if err != nil {
			t.Fatal(err)
		}
		if steal1 < steal0 || steal1 > total1 {
			t.Fatalf("steal %d -> %d of total %d", steal0, steal1, total1)
		}
		if total1 > total0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Error("total CPU ticks did not advance in 5s")
}

// The metric tables the harness reports are exactly BENCHMARK.json's.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestCompareRefusesMixedHostsAndFlagsShifts(t *testing.T) {
	host := fingerprint{CPUModel: "cpu", NProc: 2, GoVersion: "go", Kernel: "k"}
	mk := func(h fingerprint, vals ...float64) []record {
		var out []record
		for _, v := range vals {
			out = append(out, record{Workload: "w", Host: h, result: result{Metrics: map[string]metricValue{"latency_p50_ms": {Value: v}}}})
		}
		return out
	}
	a := mk(host, 1.0, 1.1, 0.9, 1.05, 0.95)
	other := host
	other.CPUModel = "faster cpu"
	if _, err := oneHost(append(a, mk(other, 1)...)); err == nil {
		t.Error("records from two hosts were accepted")
	}
	same := compareRecords(a, mk(host, 1.02, 0.98, 1.0))
	stolen := mk(host, 2.0, 2.1, 1.9)
	for i := range stolen {
		stolen[i].HostStealPct = 10
	}
	moved := compareRecords(a, stolen)
	// Sorted by metric: host_steal_pct, then latency_p50_ms.
	if len(same) != 2 || same[0].beyond || same[1].beyond || len(moved) != 2 || !moved[0].beyond || !moved[1].beyond {
		t.Errorf("verdicts: same %+v, moved %+v", same, moved)
	}
	if moved[0].metric != "host_steal_pct" || moved[0].b[1] != 10 {
		t.Errorf("steal row %+v", moved[0])
	}
	longer := mk(host, 1.0, 1.1)
	for i := range longer {
		longer[i].Seconds = 30
	}
	if cs := compareRecords(a, longer); len(cs) != 0 {
		t.Errorf("runs of different lengths were paired: %+v", cs)
	}
}

// Latency percentiles are the lower quartiles of per-window
// percentiles: stalls that hit fewer than three in four windows leave
// them alone, a stall that recurs in every window shows, and failed
// requests take no part.
func TestLatencyIsTheCalmestQuarterOfWindows(t *testing.T) {
	const windows = 10
	mk := func(stalled func(i int) bool) []outcome {
		var out []outcome
		for i := 0; i < windows*latencyWindow; i++ {
			o := outcome{lat: time.Millisecond}
			if stalled(i) {
				o.lat = 20 * time.Millisecond
			}
			out = append(out, o)
		}
		return append(out, outcome{lat: time.Hour, fail: failTransport})
	}
	// Seven of ten windows stall on every other request.
	burst := mk(func(i int) bool { return i/latencyWindow < 7 && i%2 == 0 })
	if st := summarize(burst); st.p50 != time.Millisecond || st.p90 != time.Millisecond || st.failed != 1 {
		t.Errorf("stalled windows kept: p50 %v, p90 %v, %d failed", st.p50, st.p90, st.failed)
	}
	// A stall on a fifth of the requests of every window shows in p90.
	own := mk(func(i int) bool { return i%5 == 0 })
	if st := summarize(own); st.p50 != time.Millisecond || st.p90 != 20*time.Millisecond {
		t.Errorf("the program's own stall was dropped: p50 %v, p90 %v", st.p50, st.p90)
	}
	// A short tail joins the last whole window.
	if st := summarize(own[:latencyWindow+10]); st.p90 != 20*time.Millisecond {
		t.Errorf("short phase: p90 %v", st.p90)
	}
}
