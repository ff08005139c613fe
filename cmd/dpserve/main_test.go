package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid"
)

func testSynopsis(t testing.TB, seed int64) *dpgrid.AdaptiveGrid {
	t.Helper()
	dom, err := dpgrid.NewDomain(0, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]dpgrid.Point, 5000)
	for i := range pts {
		pts[i] = dpgrid.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	syn, err := dpgrid.BuildAdaptiveGrid(pts, dom, 1, dpgrid.AGOptions{M1: 6}, dpgrid.NewNoiseSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

// newTestDPServer assembles serving state with the defaults tests want:
// cache on, no admission limit, no request timeout.
func newTestDPServer(reg *registry, opts serverOptions) *server {
	if opts.cacheEntries == 0 {
		opts.cacheEntries = 1024
	}
	return newDPServer(reg, opts)
}

func newTestServer(t *testing.T, reg *registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newTestDPServer(reg, serverOptions{}).handler())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	reg := newRegistry()
	reg.put("a", testSynopsis(t, 1))
	srv := newTestServer(t, reg)

	var got struct {
		Status   string `json:"status"`
		Synopses int    `json:"synopses"`
	}
	resp := getJSON(t, srv.URL+"/healthz", &got)
	if resp.StatusCode != http.StatusOK || got.Status != "ok" || got.Synopses != 1 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, got)
	}
}

func TestListSynopses(t *testing.T) {
	reg := newRegistry()
	reg.put("beta", testSynopsis(t, 2))
	reg.put("alpha", testSynopsis(t, 3))
	srv := newTestServer(t, reg)

	var got struct {
		Synopses []synopsisInfo `json:"synopses"`
	}
	getJSON(t, srv.URL+"/v1/synopses", &got)
	if len(got.Synopses) != 2 {
		t.Fatalf("listed %d synopses, want 2", len(got.Synopses))
	}
	if got.Synopses[0].Name != "alpha" || got.Synopses[1].Name != "beta" {
		t.Fatalf("names not sorted: %+v", got.Synopses)
	}
	if got.Synopses[0].Epsilon != 1 {
		t.Fatalf("epsilon = %g, want 1", got.Synopses[0].Epsilon)
	}
	if got.Synopses[0].Domain == nil || *got.Synopses[0].Domain != [4]float64{0, 0, 100, 100} {
		t.Fatalf("domain = %v", got.Synopses[0].Domain)
	}
}

func TestQueryBatchMatchesDirect(t *testing.T) {
	syn := testSynopsis(t, 4)
	reg := newRegistry()
	reg.put("main", syn)
	srv := newTestServer(t, reg)

	req := queryRequest{
		Synopsis: "main",
		Rects: [][4]float64{
			{10, 10, 40, 40},
			{0, 0, 100, 100},
			{55.5, 1.25, 99, 63},
		},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Counts) != len(req.Rects) {
		t.Fatalf("got %d counts, want %d", len(got.Counts), len(req.Rects))
	}
	for i, q := range req.Rects {
		want := syn.Query(dpgrid.NewRect(q[0], q[1], q[2], q[3]))
		if math.Abs(got.Counts[i]-want) > 1e-9 {
			t.Errorf("rect %d: server %g, direct %g", i, got.Counts[i], want)
		}
	}
}

func TestQueryUnknownSynopsis(t *testing.T) {
	srv := newTestServer(t, newRegistry())
	body, _ := json.Marshal(queryRequest{Synopsis: "nope", Rects: [][4]float64{{0, 0, 1, 1}}})
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestQueryBadBody(t *testing.T) {
	srv := newTestServer(t, newRegistry())
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestQueryBodyDecodeMatchesEncodingJSON: /v1/query answers every body,
// canonical or declined by the scanner, as if encoding/json had decoded
// it: a decode error gets the same 400 text, and a body that decodes
// gets the same response as its canonical re-encoding.
func TestQueryBodyDecodeMatchesEncodingJSON(t *testing.T) {
	reg := newRegistry()
	reg.put("main", testSynopsis(t, 4))
	h := newTestDPServer(reg, serverOptions{}).handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		return rec
	}
	for _, body := range []string{
		`{"synopsis":"main","rects":[[10,10,40,40],[55.5,1.25,99,63],[-0,1e-7,1E+2,0.1]]}`,
		`{"synopsis":"m\u0061in","rects":[[10,10,40,40]]}`,
		`{"Synopsis":"main","rects":[[10,10,40]]}`,
		`{"synopsis":"main","rects":[[10,10,40,40,50]],"extra":true}`,
		`{"synopsis":"main","rects":[[10,10,40,40]]} trailing`,
		`{"synopsis":"main","rects":[[1e400,0,1,1]]}`,
		`{"synopsis":"main","rects":[["1",0,1,1]]}`,
		`{"synopsis":"main","rects":[[1,2,3,4]]`,
		`null`,
		``,
	} {
		var req queryRequest
		rec := post(body)
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			want, _ := json.Marshal(map[string]string{"error": "bad query body: " + err.Error()})
			if rec.Code != http.StatusBadRequest || rec.Body.String() != string(want)+"\n" {
				t.Errorf("%q: %d %s, want 400 %s", body, rec.Code, rec.Body, want)
			}
			continue
		}
		canonical, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want := post(string(canonical))
		if rec.Code != want.Code || rec.Body.String() != want.Body.String() {
			t.Errorf("%q: %d %s, want %d %s", body, rec.Code, rec.Body, want.Code, want.Body)
		}
	}
}

// TestPutSynopsisRoundTrip: the PUT endpoint loads a binary release
// and registers it under the path's name.
func TestPutSynopsisRoundTrip(t *testing.T) {
	putAndCompare(t, "uploaded", 5, dpgrid.NewRect(20, 20, 80, 80))
}

// TestPutBinarySynopsis: the PUT endpoint accepts the binary encoding
// through the same loader as files, and the uploaded synopsis answers
// bit-identically to the one that was written.
func TestPutBinarySynopsis(t *testing.T) {
	putAndCompare(t, "bin", 43, dpgrid.NewRect(10, 10, 60, 60))
}

// putAndCompare writes a seeded synopsis as a binary release, PUTs it
// under name, and checks the registered copy answers r exactly as the
// original does.
func putAndCompare(t *testing.T, name string, seed int64, r dpgrid.Rect) {
	t.Helper()
	syn := testSynopsis(t, seed)
	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsis(&buf, syn); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	srv := newTestServer(t, reg)
	put, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/synopses/"+name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	got, _, ok := reg.get(name)
	if !ok {
		t.Fatal("synopsis not registered after PUT")
	}
	if g, w := got.Query(r), syn.Query(r); g != w {
		t.Fatalf("uploaded synopsis answers %g, original %g", g, w)
	}
}

func TestPutRejectsJSONDumps(t *testing.T) {
	putRejects(t, "*.json", 7, "dpgrid: JSON synopsis files are a write-only dump; load the binary release (-format binary)")
}

// TestPutRejectsVersion1: the committed version-1 containers no longer
// load through PUT or -synopsis; each gets the error that names the
// conversion.
func TestPutRejectsVersion1(t *testing.T) {
	putRejects(t, filepath.Join("v1", "*.dpgrid"), 6, "dpgrid: codec: container version 1 no longer loads; convert it with a dpgrid that still reads it: dpgrid -load old.dpgrid -save new.dpgrid")
}

// putRejects checks that each of the n files matching glob under the
// repository's testdata is refused with want: by PUT with a 400, and
// by -synopsis with and without -mmap. None is registered.
func putRejects(t *testing.T, glob string, n int, want string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", glob))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != n {
		t.Fatalf("found %d files matching %s under testdata, want %d: %v", len(paths), glob, n, paths)
	}
	reg := newRegistry()
	h := newTestDPServer(reg, serverOptions{}).handler()
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/synopses/rejected", bytes.NewReader(data)))
		var body struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusBadRequest || body.Error != want {
			t.Errorf("PUT %s: %d %q, want 400 %q", path, rec.Code, body.Error, want)
		}
		for _, mmap := range []bool{false, true} {
			if err := reg.loadFile("rejected", path, mmap); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-synopsis %s (mmap %v): err = %v", path, mmap, err)
			}
		}
	}
	if _, _, ok := reg.get("rejected"); ok {
		t.Errorf("a file matching %s was registered", glob)
	}
}

func TestRegistryLoadFile(t *testing.T) {
	syn := testSynopsis(t, 6)
	path := filepath.Join(t.TempDir(), "syn.dpgrid")
	if err := dpgrid.WriteSynopsisFile(path, syn); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	if err := reg.loadFile("disk", path, false); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := reg.get("disk"); !ok {
		t.Fatal("loadFile did not register the synopsis")
	}
	if err := reg.loadFile("missing", filepath.Join(t.TempDir(), "absent.dpgrid"), false); err == nil {
		t.Fatal("loading a missing file should error")
	}
}

func TestSynopsisFlagValidation(t *testing.T) {
	var f synopsisFlags
	for _, bad := range []string{"noequals", "=path.json", "name="} {
		if err := f.Set(bad); err == nil {
			t.Fatalf("want error for -synopsis %q", bad)
		}
	}
	if err := f.Set("a=b.json"); err != nil {
		t.Fatal(err)
	}
	if len(f) != 1 {
		t.Fatalf("flags = %v", f)
	}
}

func TestReadonlyBlocksPut(t *testing.T) {
	syn := testSynopsis(t, 8)
	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsis(&buf, syn); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	reg.put("fixed", syn)
	srv := httptest.NewServer(newTestDPServer(reg, serverOptions{readonly: true}).handler())
	t.Cleanup(srv.Close)

	put, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/synopses/evil", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("PUT on readonly server = %d, want 403", resp.StatusCode)
	}
	if _, _, ok := reg.get("evil"); ok {
		t.Fatal("readonly server registered a synopsis")
	}
	// Reads still work.
	body, _ := json.Marshal(queryRequest{Synopsis: "fixed", Rects: [][4]float64{{0, 0, 10, 10}}})
	qresp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query on readonly server = %d, want 200", qresp.StatusCode)
	}
}

func testShardedSynopsis(t testing.TB, seed int64) *dpgrid.Sharded {
	t.Helper()
	dom, err := dpgrid.NewDomain(0, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dpgrid.NewShardPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]dpgrid.Point, 5000)
	for i := range pts {
		pts[i] = dpgrid.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	syn, err := dpgrid.BuildShardedAdaptiveGrid(pts, plan, 1, dpgrid.AGOptions{M1: 4}, dpgrid.ShardOptions{}, dpgrid.NewNoiseSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

// TestShardedServingEndToEnd: a sharded release round-trips through the
// manifest format on disk, loads into the registry, and answers batch
// queries identically to the in-memory release.
func TestShardedServingEndToEnd(t *testing.T) {
	syn := testShardedSynopsis(t, 21)
	path := filepath.Join(t.TempDir(), "mosaic.dpgrid")
	if err := dpgrid.WriteSynopsisFile(path, syn); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	if err := reg.loadFile("mosaic", path, false); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg)

	// Metadata reports the shard count.
	var info synopsisInfo
	resp := getJSON(t, srv.URL+"/v1/synopses/mosaic", &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET metadata status = %d", resp.StatusCode)
	}
	if info.Shards != 4 || info.Epsilon != 1 || info.Domain == nil || *info.Domain != [4]float64{0, 0, 100, 100} {
		t.Fatalf("metadata = %+v", info)
	}

	req := queryRequest{
		Synopsis: "mosaic",
		Rects: [][4]float64{
			{0, 0, 100, 100},
			{10, 10, 35, 35},
			{45, 45, 55, 55}, // straddles all four tiles
			{-10, -10, 300, 20},
		},
	}
	body, _ := json.Marshal(req)
	resp2, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp2.StatusCode)
	}
	var got queryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	for i, q := range req.Rects {
		want := syn.Query(dpgrid.NewRect(q[0], q[1], q[2], q[3]))
		if math.Abs(got.Counts[i]-want) > 1e-9 {
			t.Errorf("rect %d: server %g, direct %g", i, got.Counts[i], want)
		}
	}
}

// TestShardedUploadViaPut: a sharded manifest is accepted through the
// same PUT endpoint as monolithic synopses.
func TestShardedUploadViaPut(t *testing.T) {
	syn := testShardedSynopsis(t, 22)
	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsis(&buf, syn); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	srv := newTestServer(t, reg)
	put, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/synopses/mosaic", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	got, _, ok := reg.get("mosaic")
	if !ok {
		t.Fatal("sharded synopsis not registered after PUT")
	}
	if _, ok := got.(*dpgrid.Sharded); !ok {
		t.Fatalf("registered type %T, want *dpgrid.Sharded", got)
	}
}

func TestGetSingleSynopsis(t *testing.T) {
	reg := newRegistry()
	reg.put("a", testSynopsis(t, 31))
	srv := newTestServer(t, reg)

	var info synopsisInfo
	resp := getJSON(t, srv.URL+"/v1/synopses/a", &info)
	if resp.StatusCode != http.StatusOK || info.Name != "a" || info.Epsilon != 1 {
		t.Fatalf("GET /v1/synopses/a = %d %+v", resp.StatusCode, info)
	}
	if info.Shards != 0 {
		t.Fatalf("monolithic synopsis reports %d shards", info.Shards)
	}
	resp = getJSON(t, srv.URL+"/v1/synopses/missing", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing = %d, want 404", resp.StatusCode)
	}
}

func TestDeleteSynopsis(t *testing.T) {
	reg := newRegistry()
	reg.put("victim", testSynopsis(t, 32))
	srv := newTestServer(t, reg)

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/synopses/victim", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	if _, _, ok := reg.get("victim"); ok {
		t.Fatal("synopsis still registered after DELETE")
	}
	// Deleting again is a 404.
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status = %d, want 404", resp.StatusCode)
	}
}

func TestReadonlyBlocksDelete(t *testing.T) {
	reg := newRegistry()
	reg.put("fixed", testSynopsis(t, 33))
	srv := httptest.NewServer(newTestDPServer(reg, serverOptions{readonly: true}).handler())
	t.Cleanup(srv.Close)

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/synopses/fixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("DELETE on readonly server = %d, want 403", resp.StatusCode)
	}
	if _, _, ok := reg.get("fixed"); !ok {
		t.Fatal("readonly server dropped a synopsis")
	}
}

// TestServerTimeoutsConfigured guards the slow-loris protections: the
// run() server must keep non-zero header/read timeouts.
func TestServerTimeoutsConfigured(t *testing.T) {
	srv := newHTTPServer(":0", nil)
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout not set")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout not set")
	}
	if srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Error("write/idle timeouts not set")
	}
}

// ---- serving-path validation and loading tests ----

func TestBadRectIndex(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		rects [][4]float64
		want  int
	}{
		{nil, -1},
		{[][4]float64{{0, 0, 1, 1}}, -1},
		{[][4]float64{{0, 0, 1, 1}, {nan, 0, 1, 1}}, 1},
		{[][4]float64{{0, 0, inf, 1}}, 0},
		{[][4]float64{{0, 0, 1, 1}, {0, 0, 1, 1}, {0, -inf, 1, 1}}, 2},
		{[][4]float64{{-1e308, -1e308, 1e308, 1e308}}, -1}, // huge but finite
	}
	for _, tc := range cases {
		if got := badRectIndex(tc.rects); got != tc.want {
			t.Errorf("badRectIndex(%v) = %d, want %d", tc.rects, got, tc.want)
		}
	}
}

// TestQueryRejectsNonFiniteRect locks in the 400: a rect with an
// out-of-range coordinate (JSON's only route to a non-finite float64)
// must never reach Prefix.Query.
func TestQueryRejectsNonFiniteRect(t *testing.T) {
	reg := newRegistry()
	reg.put("main", testSynopsis(t, 41))
	srv := newTestServer(t, reg)

	body := `{"synopsis":"main","rects":[[0,0,10,10],[0,0,1e999,10]]}`
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// opaqueSynopsis implements only Query — the minimal registry citizen,
// with no metadata to report.
type opaqueSynopsis struct{}

func (opaqueSynopsis) Query(dpgrid.Rect) float64 { return 0 }

// TestMetadataOmitsDomainWithoutMetadata: a bare synopsis must not
// report a bogus [0,0,0,0] domain (omitempty is a no-op for arrays; the
// field is now a pointer).
func TestMetadataOmitsDomainWithoutMetadata(t *testing.T) {
	reg := newRegistry()
	reg.put("bare", opaqueSynopsis{})
	srv := newTestServer(t, reg)

	resp, err := http.Get(srv.URL + "/v1/synopses/bare")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["domain"]; present {
		t.Fatalf("bare synopsis reports a domain: %v", raw)
	}
	if raw["name"] != "bare" {
		t.Fatalf("metadata = %v", raw)
	}
}

func TestLoadSynopsesRejectsDuplicateNames(t *testing.T) {
	err := loadSynopses(newRegistry(), []string{"a=x.json", "b=y.json", "a=z.json"}, false)
	if err == nil {
		t.Fatal("duplicate -synopsis name accepted")
	}
	for _, want := range []string{"duplicate", `"a"`, "x.json", "z.json"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	// The duplicate check fires before any file I/O, so nothing was
	// loaded from the (nonexistent) paths.
}

func TestLoadSynopsesLoadsAll(t *testing.T) {
	dir := t.TempDir()
	reg := newRegistry()
	var specs []string
	for i, name := range []string{"a", "b"} {
		path := filepath.Join(dir, name+".dpgrid")
		if err := dpgrid.WriteSynopsisFile(path, testSynopsis(t, int64(50+i))); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, name+"="+path)
	}
	if err := loadSynopses(reg, specs, false); err != nil {
		t.Fatal(err)
	}
	if reg.count() != 2 {
		t.Fatalf("loaded %d synopses, want 2", reg.count())
	}
}

// TestRegistryLoadsShardedManifestLazily is the registry-level load
// contract: a binary sharded manifest registers as a *dpgrid.Sharded
// whose tiles alias the file bytes whether or not the file is mapped,
// reports its shards, and answers like the built release bit for bit.
func TestRegistryLoadsShardedManifestLazily(t *testing.T) {
	syn := testShardedSynopsis(t, 42) // 2x2 mosaic over [0,100]^2
	path := filepath.Join(t.TempDir(), "mosaic.dpgrid")
	if err := dpgrid.WriteSynopsisFileFormat(path, syn, dpgrid.FormatBinary); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		reg := newRegistry()
		if err := reg.loadFile("mosaic", path, mmap); err != nil {
			t.Fatal(err)
		}
		got, _, ok := reg.get("mosaic")
		if !ok {
			t.Fatal("manifest not registered")
		}
		sh, ok := got.(*dpgrid.Sharded)
		if !ok {
			t.Fatalf("mmap=%v: registered type %T, want *dpgrid.Sharded", mmap, got)
		}
		if !sh.SATBacked() {
			t.Errorf("mmap=%v: loaded tiles are not SAT-backed", mmap)
		}

		srv := newTestServer(t, reg)
		var info synopsisInfo
		getJSON(t, srv.URL+"/v1/synopses/mosaic", &info)
		if info.Shards != 4 {
			t.Fatalf("mmap=%v: metadata reports %d shards, want 4", mmap, info.Shards)
		}
		rects := [][4]float64{{5, 5, 40, 40}, {45, 45, 55, 55}}
		counts := postQuery(t, srv.URL, "mosaic", rects)
		for i, q := range rects {
			if want := syn.Query(dpgrid.NewRect(q[0], q[1], q[2], q[3])); counts[i] != want {
				t.Errorf("mmap=%v rect %d: served %g, built %g", mmap, i, counts[i], want)
			}
		}
	}
}

// TestServeNewKindsEndToEnd: every kind added after the
// original UG/AG/sharded trio is servable — PUT a binary container,
// read back its kind from the info endpoint, query it, see it labeled
// on /metrics, and watch the label disappear on DELETE.
func TestServeNewKindsEndToEnd(t *testing.T) {
	dom, err := dpgrid.NewDomain(0, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	pts := make([]dpgrid.Point, 2000)
	for i := range pts {
		pts[i] = dpgrid.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	synopses := map[string]dpgrid.Synopsis{}
	hier, err := dpgrid.BuildHierarchy(pts, dom, 1, dpgrid.HierarchyOptions{GridSize: 8, Branching: 2, Depth: 3}, dpgrid.NewNoiseSource(72))
	if err != nil {
		t.Fatal(err)
	}
	synopses["hierarchy"] = hier
	kd, err := dpgrid.BuildKDTree(pts, dom, 1, dpgrid.KDTreeOptions{Method: dpgrid.KDHybrid}, dpgrid.NewNoiseSource(73))
	if err != nil {
		t.Fatal(err)
	}
	synopses["kd-tree"] = kd
	pl, err := dpgrid.BuildPrivlet(pts, dom, 1, dpgrid.PrivletOptions{GridSize: 6}, dpgrid.NewNoiseSource(74))
	if err != nil {
		t.Fatal(err)
	}
	synopses["privlet"] = pl

	reg := newRegistry()
	srv := newTestServer(t, reg)
	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	for kind, syn := range synopses {
		name := "syn-" + kind
		var buf bytes.Buffer
		if err := dpgrid.WriteSynopsis(&buf, syn); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		put, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/synopses/"+name, &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(put)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: PUT status = %d", kind, resp.StatusCode)
		}

		var info synopsisInfo
		getJSON(t, srv.URL+"/v1/synopses/"+name, &info)
		if info.Kind != kind {
			t.Errorf("%s: info kind = %q", kind, info.Kind)
		}

		body, err := json.Marshal(queryRequest{Synopsis: name, Rects: [][4]float64{{10, 10, 60, 60}}})
		if err != nil {
			t.Fatal(err)
		}
		qresp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var qr queryResponse
		if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		qresp.Body.Close()
		want := syn.Query(dpgrid.NewRect(10, 10, 60, 60))
		if len(qr.Counts) != 1 || math.Abs(qr.Counts[0]-want) > 1e-9 {
			t.Errorf("%s: served %v, direct %g", kind, qr.Counts, want)
		}

		label := `dpserve_synopsis_kind{synopsis="` + name + `",kind="` + kind + `"} 1`
		if met := scrape(); !strings.Contains(met, label) {
			t.Errorf("%s: /metrics missing %s", kind, label)
		}

		del, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/synopses/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		dresp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: DELETE status = %d", kind, dresp.StatusCode)
		}
		if met := scrape(); strings.Contains(met, label) {
			t.Errorf("%s: kind series survived DELETE", kind)
		}
	}
}
