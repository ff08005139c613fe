package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/atomicfile"
	"github.com/dpgrid/dpgrid/internal/cluster"
)

// testClusterSharded builds a deterministic 3x2 AG mosaic (6 tiles)
// over [0,100]^2 — wide enough to spread across three backends.
func testClusterSharded(t testing.TB, seed int64) *dpgrid.Sharded {
	t.Helper()
	dom, err := dpgrid.NewDomain(0, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dpgrid.NewShardPlan(dom, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]dpgrid.Point, 6000)
	for i := range pts {
		pts[i] = dpgrid.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	syn, err := dpgrid.BuildShardedAdaptiveGrid(pts, plan, 1, dpgrid.AGOptions{M1: 4}, dpgrid.ShardOptions{}, dpgrid.NewNoiseSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

// startClusterBackend serves syn as "checkins" from a full dpserve
// backend (registry, cache, admission, the cluster endpoint — the real
// handler stack).
func startClusterBackend(t testing.TB, syn dpgrid.Synopsis) *httptest.Server {
	t.Helper()
	reg := newRegistry()
	reg.put("checkins", syn)
	s := newDPServer(reg, serverOptions{cacheEntries: 256})
	s.markReady()
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	return srv
}

// writeTestPlacement writes a placement splitting the 3x2 mosaic's six
// tiles across three backends, two tiles each.
func writeTestPlacement(t testing.TB, urls [3]string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "placement.json")
	writeTestPlacementTo(t, path, urls)
	return path
}

// writeTestPlacementTo writes the exactly-once v1 placement to path.
func writeTestPlacementTo(t testing.TB, path string, urls [3]string) {
	t.Helper()
	writePlacementJSON(t, path, 1, []map[string]any{
		{"node": "n0", "tiles": []int{0, 1}},
		{"node": "n1", "tiles": []int{2, 3}},
		{"node": "n2", "tiles": []int{4, 5}},
	}, urls)
}

// writeReplicatedPlacementTo writes a v2 placement to path with every
// tile on two of the three backends.
func writeReplicatedPlacementTo(t testing.TB, path string, urls [3]string) {
	t.Helper()
	writePlacementJSON(t, path, 2, []map[string]any{
		{"node": "n0", "tiles": []int{0, 1, 2, 3}},
		{"node": "n1", "tiles": []int{2, 3, 4, 5}},
		{"node": "n2", "tiles": []int{4, 5, 0, 1}},
	}, urls)
}

func writePlacementJSON(t testing.TB, path string, version int, assignments []map[string]any, urls [3]string) {
	t.Helper()
	placement := map[string]any{
		"version": version,
		"nodes": []map[string]string{
			{"name": "n0", "url": urls[0]},
			{"name": "n1", "url": urls[1]},
			{"name": "n2", "url": urls[2]},
		},
		"releases": []map[string]any{{
			"synopsis":    "checkins",
			"domain":      []float64{0, 0, 100, 100},
			"tiles":       "3x2",
			"assignments": assignments,
		}},
	}
	data, err := json.Marshal(placement)
	if err != nil {
		t.Fatal(err)
	}
	// Atomic like an operator's rewrite should be: the -placement-watch
	// poll must never read a half-written file.
	if err := atomicfile.WriteBytes(path, data); err != nil {
		t.Fatal(err)
	}
}

func startRouter(t testing.TB, placementPath string, opts cluster.Options) (*routerServer, *httptest.Server) {
	t.Helper()
	rs, err := newRouterServer(routerOptions{
		placementPath:  placementPath,
		requestTimeout: time.Minute,
		backend:        opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rs.handler())
	t.Cleanup(srv.Close)
	return rs, srv
}

func postClusterQuery(t testing.TB, url string, req queryRequest) (*http.Response, queryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, qr
}

// TestClusterEndToEnd is the acceptance path: three in-process
// backends behind a router answer bit-identically to a single node
// serving the whole release; killing one backend degrades to a partial
// answer carrying the missing tile list while /metrics records the
// backend errors and the partial answer.
func TestClusterEndToEnd(t *testing.T) {
	syn := testClusterSharded(t, 31)

	var urls [3]string
	backends := make([]*httptest.Server, 3)
	for i := range backends {
		backends[i] = startClusterBackend(t, syn)
		urls[i] = backends[i].URL
	}
	_, routerSrv := startRouter(t, writeTestPlacement(t, urls), cluster.Options{
		Timeout:          time.Second,
		Retries:          1,
		Backoff:          5 * time.Millisecond,
		FailureThreshold: 10, // keep the breaker out of this test's way
		Cooldown:         time.Minute,
		ProbeInterval:    -1,
	})

	// The single-node reference: the same release behind a plain server.
	single := startClusterBackend(t, syn)

	rng := rand.New(rand.NewSource(17))
	rects := [][4]float64{
		{0, 0, 100, 100},
		{5, 5, 20, 45},
		{-10, -10, 300, 300},
		{40, 60, 95, 99},
	}
	for i := 0; i < 30; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		rects = append(rects, [4]float64{x, y, x + rng.Float64()*70, y + rng.Float64()*70})
	}
	req := queryRequest{Synopsis: "checkins", Rects: rects}

	resp, clustered := postClusterQuery(t, routerSrv.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router query: %d", resp.StatusCode)
	}
	if clustered.Partial || len(clustered.MissingTiles) != 0 {
		t.Fatalf("healthy cluster answered partial: %+v", clustered)
	}
	respS, direct := postClusterQuery(t, single.URL, req)
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("single-node query: %d", respS.StatusCode)
	}
	if len(clustered.Counts) != len(direct.Counts) {
		t.Fatalf("count lengths differ: %d vs %d", len(clustered.Counts), len(direct.Counts))
	}
	for i := range clustered.Counts {
		if clustered.Counts[i] != direct.Counts[i] {
			t.Errorf("rect %d: cluster %v != single-node %v", i, clustered.Counts[i], direct.Counts[i])
		}
	}

	// Kill n1 (tiles 2 and 3): the full-domain rect must degrade to a
	// partial sum over the surviving four tiles, named as missing.
	backends[1].Close()
	resp, degraded := postClusterQuery(t, routerSrv.URL, queryRequest{
		Synopsis: "checkins",
		Rects:    [][4]float64{{0, 0, 100, 100}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: %d", resp.StatusCode)
	}
	if !degraded.Partial {
		t.Fatal("node loss did not mark the answer partial")
	}
	if len(degraded.MissingTiles) != 2 || degraded.MissingTiles[0] != 2 || degraded.MissingTiles[1] != 3 {
		t.Fatalf("missing_tiles = %v, want [2 3]", degraded.MissingTiles)
	}
	full := dpgrid.NewRect(0, 0, 100, 100)
	var want float64
	for _, ti := range []int{0, 1, 4, 5} {
		want += syn.ShardAnswer(ti, full)
	}
	if degraded.Counts[0] != want {
		t.Errorf("partial sum %v != surviving-tile sum %v", degraded.Counts[0], want)
	}

	// The router's metrics page must show the backend errors and the
	// partial answer.
	metResp, err := http.Get(routerSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	for _, wantLine := range []string{
		"dpserve_cluster_partial_answers_total 1",
		`dpserve_cluster_backend_errors_total{backend="n1"} 2`,
		`dpserve_router_queries_total{synopsis="checkins"} 2`,
	} {
		if !strings.Contains(string(page), wantLine) {
			t.Errorf("router metrics missing %q", wantLine)
		}
	}

	// Kill the rest: the router has nothing to serve and says so with a
	// retryable 503.
	backends[0].Close()
	backends[2].Close()
	resp, _ = postClusterQuery(t, routerSrv.URL, queryRequest{
		Synopsis: "checkins",
		Rects:    [][4]float64{{0, 0, 100, 100}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-backends-down query: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

func TestClusterRouterRejectsBadRequests(t *testing.T) {
	syn := testClusterSharded(t, 32)
	var urls [3]string
	for i := range urls {
		urls[i] = startClusterBackend(t, syn).URL
	}
	_, routerSrv := startRouter(t, writeTestPlacement(t, urls), cluster.Options{ProbeInterval: -1})

	resp, _ := postClusterQuery(t, routerSrv.URL, queryRequest{Synopsis: "nope", Rects: [][4]float64{{0, 0, 1, 1}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown synopsis: %d, want 404", resp.StatusCode)
	}
	// A coordinate outside float64 range fails JSON decoding: 400.
	raw := `{"synopsis":"checkins","rects":[[0,0,1e999,1]]}`
	respB, err := http.Post(routerSrv.URL+"/v1/query", "application/json", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respB.Body)
	respB.Body.Close()
	if respB.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range rect coordinate: %d, want 400", respB.StatusCode)
	}
	// A NaN smuggled past JSON (programmatic callers) trips badRectIndex.
	rs, _ := startRouter(t, writeTestPlacement(t, urls), cluster.Options{ProbeInterval: -1})
	rec := httptest.NewRecorder()
	body := `{"synopsis":"checkins","rects":[[0,0,1,1]]}`
	reqHTTP := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	rs.handleQuery(rec, reqHTTP)
	if rec.Code != http.StatusOK {
		t.Errorf("well-formed direct query: %d, want 200", rec.Code)
	}
	if badRectIndex([][4]float64{{0, 0, math.NaN(), 1}}) != 0 {
		t.Error("badRectIndex missed a NaN coordinate")
	}
}

// TestBackendClusterEndpoint exercises the backend half directly:
// tile validation, per-tile partials matching ShardAnswer, and the
// non-sharded rejection.
// postShardQuery posts req to a backend's cluster endpoint, decoding
// the partials of a 200 answer.
func postShardQuery(t *testing.T, url string, req cluster.ShardQueryRequest) (*http.Response, cluster.ShardQueryResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+cluster.ShardQueryPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out cluster.ShardQueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

func TestBackendClusterEndpoint(t *testing.T) {
	syn := testClusterSharded(t, 33)
	backend := startClusterBackend(t, syn)
	post := func(req cluster.ShardQueryRequest) (*http.Response, cluster.ShardQueryResponse) {
		return postShardQuery(t, backend.URL, req)
	}

	full := [4]float64{0, 0, 100, 100}
	resp, out := post(cluster.ShardQueryRequest{
		Synopsis: "checkins", Tiles: []int{1, 4}, Rects: [][4]float64{full, {5, 5, 10, 10}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard query: %d", resp.StatusCode)
	}
	if len(out.Partials) != 2 {
		t.Fatalf("partials for %d rects, want 2", len(out.Partials))
	}
	fullRect := dpgrid.NewRect(0, 0, 100, 100)
	if len(out.Partials[0]) != 2 ||
		out.Partials[0][0] != (cluster.TilePartial{Tile: 1, Count: syn.ShardAnswer(1, fullRect)}) ||
		out.Partials[0][1] != (cluster.TilePartial{Tile: 4, Count: syn.ShardAnswer(4, fullRect)}) {
		t.Errorf("full-domain partials = %+v", out.Partials[0])
	}
	// Rect (5,5)-(10,10) sits entirely in tile 0: neither requested tile
	// overlaps it.
	if len(out.Partials[1]) != 0 {
		t.Errorf("small-rect partials = %+v, want none", out.Partials[1])
	}

	resp, _ = post(cluster.ShardQueryRequest{Synopsis: "checkins", Tiles: []int{6}, Rects: [][4]float64{full}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range tile: %d, want 400", resp.StatusCode)
	}
	resp, _ = post(cluster.ShardQueryRequest{Synopsis: "nope", Tiles: []int{0}, Rects: [][4]float64{full}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown synopsis: %d, want 404", resp.StatusCode)
	}

	// A monolithic synopsis cannot answer per-tile queries.
	mono := startClusterBackend(t, testSynopsis(t, 34))
	body, _ := json.Marshal(cluster.ShardQueryRequest{Synopsis: "checkins", Tiles: []int{0}, Rects: [][4]float64{full}})
	respM, err := http.Post(mono.URL+cluster.ShardQueryPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respM.Body)
	respM.Body.Close()
	if respM.StatusCode != http.StatusBadRequest {
		t.Errorf("monolithic shard query: %d, want 400", respM.StatusCode)
	}
}

// TestMappedBackendClusterQuery: a backend that memory-mapped its
// sharded release (dpserve -mmap) answers the cluster endpoint, and its
// partials equal those of the same release read onto the heap.
func TestMappedBackendClusterQuery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkins.dpgrid")
	if err := dpgrid.WriteSynopsisFileFormat(path, testClusterSharded(t, 37), dpgrid.FormatBinary); err != nil {
		t.Fatal(err)
	}
	mapped, err := dpgrid.MapSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	read, err := dpgrid.ReadSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	req := cluster.ShardQueryRequest{
		Synopsis: "checkins",
		Tiles:    []int{0, 1, 2, 3, 4, 5},
		Rects:    [][4]float64{{0, 0, 100, 100}, {10, 20, 70, 90}, {40, 40, 45, 45}},
	}
	var got [2]cluster.ShardQueryResponse
	for i, syn := range []dpgrid.Synopsis{mapped, read} {
		resp, out := postShardQuery(t, startClusterBackend(t, syn).URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %d (%T): cluster query status %d, want 200", i, syn, resp.StatusCode)
		}
		got[i] = out
	}
	if len(got[0].Partials) != len(req.Rects) || len(got[1].Partials) != len(req.Rects) {
		t.Fatalf("partials for %d and %d rects, want %d", len(got[0].Partials), len(got[1].Partials), len(req.Rects))
	}
	for r := range req.Rects {
		m, l := got[0].Partials[r], got[1].Partials[r]
		if len(m) != len(l) {
			t.Fatalf("rect %d: mapped partials %+v, read %+v", r, m, l)
		}
		for k := range m {
			if m[k] != l[k] {
				t.Errorf("rect %d: mapped partial %+v != read %+v", r, m[k], l[k])
			}
		}
	}
}

// TestReadyzGatesOnLoading verifies the /healthz vs /readyz split: a
// server that has not finished loading is alive but not ready, and
// readiness bypasses the admission limiter.
func TestReadyzGatesOnLoading(t *testing.T) {
	reg := newRegistry()
	reg.put("a", testSynopsis(t, 35))
	s := newDPServer(reg, serverOptions{cacheEntries: 16, maxInflight: 1})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)

	// Saturate the admission limiter: /readyz and /healthz must still
	// answer (they sit outside the limiter), while /v1 would 429.
	s.inflightSem <- struct{}{}
	defer func() { <-s.inflightSem }()

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusServiceUnavailable) // loading not finished
	check("/v1/synopses", http.StatusTooManyRequests)

	s.markReady()
	check("/readyz", http.StatusOK)
}

// TestAnswerHonorsCancellation pins the satellite: a cancelled request
// context aborts the sharded fan-out with an error instead of
// computing the full batch.
func TestAnswerHonorsCancellation(t *testing.T) {
	syn := testClusterSharded(t, 36)
	reg := newRegistry()
	reg.put("checkins", syn)
	s := newDPServer(reg, serverOptions{cacheEntries: 16})
	_, gen, _ := reg.get("checkins")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.answer(ctx, "checkins", gen, syn, [][4]float64{{0, 0, 100, 100}})
	if err == nil {
		t.Fatal("answer with a cancelled context returned no error")
	}

	// And the live path still works.
	counts, _, err := s.answer(context.Background(), "checkins", gen, syn, [][4]float64{{0, 0, 100, 100}})
	if err != nil {
		t.Fatal(err)
	}
	if want := syn.Query(dpgrid.NewRect(0, 0, 100, 100)); counts[0] != want {
		t.Errorf("answer %v != direct %v", counts[0], want)
	}
}

// TestRunClusterFlagValidation covers the flag cross-checks.
func TestRunClusterFlagValidation(t *testing.T) {
	if err := run([]string{"-cluster"}); err == nil || !strings.Contains(err.Error(), "-placement") {
		t.Errorf("-cluster without -placement: %v", err)
	}
	if err := run([]string{"-cluster", "-placement", "p.json", "-synopsis", "a=b"}); err == nil ||
		!strings.Contains(err.Error(), "own no synopses") {
		t.Errorf("-cluster with -synopsis: %v", err)
	}
	if err := run([]string{"-placement", "p.json"}); err == nil ||
		!strings.Contains(err.Error(), "only meaningful with -cluster") {
		t.Errorf("-placement without -cluster: %v", err)
	}
	if err := run([]string{"-placement-watch", "1s"}); err == nil ||
		!strings.Contains(err.Error(), "only meaningful with -cluster") {
		t.Errorf("-placement-watch without -cluster: %v", err)
	}
}

// waitGeneration polls until the router serves the wanted placement
// generation or the deadline passes.
func waitGeneration(t *testing.T, rs *routerServer, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rs.router.Generation() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("generation = %d, want %d", rs.router.Generation(), want)
}

// TestReloadLoopSighupAndWatch drives the hot-reload loop through all
// three triggers: a SIGHUP value on the channel reloads unconditionally,
// the -placement-watch poll catches a rewritten file with no signal at
// all, and a corrupt rewrite is rejected with the old placement kept
// serving until a good file lands.
func TestReloadLoopSighupAndWatch(t *testing.T) {
	syn := testClusterSharded(t, 41)
	var urls [3]string
	for i := range urls {
		urls[i] = startClusterBackend(t, syn).URL
	}
	path := writeTestPlacement(t, urls)
	rs, routerSrv := startRouter(t, path, cluster.Options{ProbeInterval: -1})

	hup := make(chan os.Signal)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rs.reloadLoop(hup, 2*time.Millisecond, stop)
	}()
	defer func() { close(stop); <-done }()

	// SIGHUP reloads even an unchanged file.
	hup <- syscall.SIGHUP
	waitGeneration(t, rs, 2)

	// The watch poll picks up a rewrite on its own.
	writeReplicatedPlacementTo(t, path, urls)
	waitGeneration(t, rs, 3)

	// A corrupt rewrite is rejected: generation 3 keeps serving and the
	// rejection is counted.
	if err := atomicfile.WriteBytes(path, []byte(`{"version": 9}`)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		page := getMetricsPage(t, routerSrv.URL)
		if strings.Contains(page, "dpserve_cluster_placement_reload_rejections_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reload rejection never counted; metrics:\n%s", page)
		}
		time.Sleep(time.Millisecond)
	}
	if got := rs.router.Generation(); got != 3 {
		t.Fatalf("bad file bumped generation to %d", got)
	}
	resp, qr := postClusterQuery(t, routerSrv.URL, queryRequest{
		Synopsis: "checkins", Rects: [][4]float64{{0, 0, 100, 100}},
	})
	if resp.StatusCode != http.StatusOK || qr.Partial {
		t.Fatalf("old placement stopped serving after rejected reload: %d %+v", resp.StatusCode, qr)
	}
	if qr.Generation != 3 {
		t.Errorf("response generation = %d, want 3", qr.Generation)
	}

	// A good file recovers.
	writeTestPlacementTo(t, path, urls)
	waitGeneration(t, rs, 4)
	page := getMetricsPage(t, routerSrv.URL)
	if !strings.Contains(page, "dpserve_cluster_placement_generation 4") {
		t.Errorf("generation gauge missing from metrics:\n%s", page)
	}
}

func getMetricsPage(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(page)
}

// TestClusterHotReloadUnderLoad is the satellite invariant: queries
// running concurrently with repeated SIGHUP placement swaps each see
// exactly one placement — every answer is complete, bit-identical to
// single-node serving, and stamped with a generation that existed; the
// generations a sequential client observes never go backwards.
func TestClusterHotReloadUnderLoad(t *testing.T) {
	syn := testClusterSharded(t, 42)
	var urls [3]string
	for i := range urls {
		urls[i] = startClusterBackend(t, syn).URL
	}
	path := writeTestPlacement(t, urls)
	rs, routerSrv := startRouter(t, path, cluster.Options{
		Timeout:          2 * time.Second,
		Retries:          1,
		Backoff:          time.Millisecond,
		FailureThreshold: 1000, // swaps are not failures; keep breakers closed
		Cooldown:         time.Minute,
		ProbeInterval:    -1,
	})

	single := startClusterBackend(t, syn)
	req := queryRequest{Synopsis: "checkins", Rects: [][4]float64{
		{0, 0, 100, 100}, {10, 20, 70, 90}, {33, 1, 34, 99},
	}}
	_, want := postClusterQuery(t, single.URL, req)

	hup := make(chan os.Signal)
	stopLoop := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		rs.reloadLoop(hup, 0, stopLoop)
	}()
	defer func() { close(stopLoop); <-loopDone }()

	const swaps = 20
	finalGen := uint64(1 + swaps)

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan string, 64)
	var wg sync.WaitGroup
	var served atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(routerSrv.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				var qr queryResponse
				decErr := json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				switch {
				case resp.StatusCode != http.StatusOK:
					errs <- fmt.Sprintf("query during swap: status %d", resp.StatusCode)
					return
				case decErr != nil:
					errs <- "decode: " + decErr.Error()
					return
				case qr.Partial || len(qr.MissingTiles) != 0:
					errs <- fmt.Sprintf("partial answer during swap: %+v", qr)
					return
				case qr.Generation < 1 || qr.Generation > finalGen:
					errs <- fmt.Sprintf("impossible generation %d", qr.Generation)
					return
				case qr.Generation < lastGen:
					errs <- fmt.Sprintf("generation went backwards: %d after %d", qr.Generation, lastGen)
					return
				}
				lastGen = qr.Generation
				for i := range want.Counts {
					if qr.Counts[i] != want.Counts[i] {
						errs <- fmt.Sprintf("gen %d rect %d: %v != single-node %v",
							qr.Generation, i, qr.Counts[i], want.Counts[i])
						return
					}
				}
				served.Add(1)
			}
		}()
	}

	// Alternate exactly-once and replicated placements; both cover every
	// tile, so answers must stay complete and bit-identical throughout.
	for s := 0; s < swaps; s++ {
		if s%2 == 0 {
			writeReplicatedPlacementTo(t, path, urls)
		} else {
			writeTestPlacementTo(t, path, urls)
		}
		hup <- syscall.SIGHUP
		waitGeneration(t, rs, uint64(2+s))
		time.Sleep(2 * time.Millisecond) // let some queries land on this generation
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if served.Load() == 0 {
		t.Fatal("no queries completed during the swap storm")
	}
	if got := rs.router.Generation(); got != finalGen {
		t.Errorf("final generation = %d, want %d", got, finalGen)
	}
}
