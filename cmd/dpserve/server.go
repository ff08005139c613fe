package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/cache"
	"github.com/dpgrid/dpgrid/internal/cluster"
	"github.com/dpgrid/dpgrid/internal/pool"
)

// maxBodyBytes caps request bodies (a 1e6-rect batch is ~40 MB; synopsis
// uploads can be larger but are bounded too).
const maxBodyBytes = 256 << 20

// server bundles the serving-path state: the synopsis registry, the
// bounded LRU answer cache in front of query execution, the metric
// families, and the operational knobs. It is the receiver for every
// HTTP handler; main constructs exactly one.
type server struct {
	reg      *registry
	cache    *cache.Cache // nil when -cache-entries=0
	met      *serverMetrics
	readonly bool

	maxInflight    int           // 0 = unlimited
	requestTimeout time.Duration // 0 = none
	inflightSem    chan struct{} // nil when unlimited

	// ready flips once every startup synopsis is loaded and validated;
	// until then /readyz answers 503 while /healthz already answers 200.
	// The split is what lets a rolling deploy keep traffic off a replica
	// that is alive but still decoding manifests.
	ready atomic.Bool
}

// serverOptions carries the operational knobs from flags to newDPServer.
type serverOptions struct {
	readonly       bool
	cacheEntries   int
	maxInflight    int
	requestTimeout time.Duration
}

// newDPServer assembles the serving state around a loaded registry.
func newDPServer(reg *registry, opts serverOptions) *server {
	s := &server{
		reg:            reg,
		cache:          cache.New(opts.cacheEntries),
		readonly:       opts.readonly,
		maxInflight:    opts.maxInflight,
		requestTimeout: opts.requestTimeout,
	}
	if opts.maxInflight > 0 {
		s.inflightSem = make(chan struct{}, opts.maxInflight)
	}
	s.met = newServerMetrics(
		func() float64 { return float64(s.cache.Len()) },
		func() float64 { return float64(reg.count()) },
		func() float64 { return float64(reg.mappedBytes()) },
	)
	// Startup-loaded synopses (-load) predate the metrics registry; seed
	// their kind info series so /metrics describes the full serving set
	// from the first scrape, not just names PUT after boot.
	for _, name := range reg.names() {
		if syn, _, ok := reg.get(name); ok {
			s.met.setSynopsisKind(name, syn)
		}
	}
	return s
}

// markReady flips /readyz to 200 and (re-)seeds the per-synopsis kind
// series: with asynchronous startup loading, the registry fills after
// newDPServer ran its seeding pass.
func (s *server) markReady() {
	for _, name := range s.reg.names() {
		if syn, _, ok := s.reg.get(name); ok {
			s.met.setSynopsisKind(name, syn)
		}
	}
	s.ready.Store(true)
}

// queryRequest is the body of POST /v1/query. Rects are
// [minX, minY, maxX, maxY] quadruples.
type queryRequest struct {
	Synopsis string       `json:"synopsis"`
	Rects    [][4]float64 `json:"rects"`
}

// scanQueryRequest decodes a /v1/query body in its canonical shape
// without reflection; cluster.DecodeBody hands every other body to
// encoding/json.
func scanQueryRequest(body []byte, req *queryRequest) bool {
	var ok bool
	req.Synopsis, req.Rects, ok = cluster.ScanQuery(body)
	return ok
}

// queryResponse is the body of a successful POST /v1/query: one
// estimate per request rectangle, in order. Partial and MissingTiles
// appear only in cluster mode, when backend loss degraded the answer
// to the surviving tiles' sum.
type queryResponse struct {
	Synopsis     string    `json:"synopsis"`
	Counts       []float64 `json:"counts"`
	Partial      bool      `json:"partial,omitempty"`
	MissingTiles []int     `json:"missing_tiles,omitempty"`
	// Generation is the placement generation that answered a cluster
	// query; backend (single-node) responses omit it.
	Generation uint64 `json:"placement_generation,omitempty"`
}

// synopsisInfo is one entry of GET /v1/synopses and the body of
// GET /v1/synopses/<name>. Shards is set only for sharded releases.
// Domain is a pointer because encoding/json's omitempty is a no-op for
// arrays: a bare Synopsis without metadata used to report a bogus
// [0,0,0,0] domain instead of omitting the field.
type synopsisInfo struct {
	Name    string      `json:"name"`
	Kind    string      `json:"kind,omitempty"`
	Epsilon float64     `json:"epsilon,omitempty"`
	Domain  *[4]float64 `json:"domain,omitempty"`
	Shards  int         `json:"shards,omitempty"`
}

// metadata is implemented by every released synopsis type in dpgrid;
// asserted dynamically so the registry can also hold bare Synopsis
// implementations without it.
type metadata interface {
	Epsilon() float64
	Domain() dpgrid.Domain
}

// sharded is implemented by geo-sharded releases (dpgrid.Sharded).
type sharded interface {
	NumShards() int
}

func infoFor(name string, s dpgrid.Synopsis) synopsisInfo {
	info := synopsisInfo{Name: name, Kind: dpgrid.SynopsisKind(s)}
	if m, ok := s.(metadata); ok {
		d := m.Domain()
		info.Epsilon = m.Epsilon()
		info.Domain = &[4]float64{d.MinX, d.MinY, d.MaxX, d.MaxY}
	}
	if sh, ok := s.(sharded); ok {
		info.Shards = sh.NumShards()
	}
	return info
}

// handler returns the dpserve HTTP API. The /v1 endpoints run behind
// the admission limiter and the per-request timeout; /healthz and
// /metrics bypass both, so liveness probes and scrapes keep answering
// while the API sheds load — exactly when visibility matters most.
//
// dpserve has no authentication: anyone who can reach the listener can
// replace or retire a served synopsis through PUT/DELETE. Deploy
// writable registries only on trusted networks, or start with
// -readonly.
func (s *server) handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("/v1/synopses", s.handleList)
	api.HandleFunc("/v1/synopses/", s.handleSynopsis)
	api.HandleFunc("/v1/query", s.handleQuery)
	api.HandleFunc(cluster.ShardQueryPath, s.handleClusterQuery)

	// The limiter sits INSIDE the timeout handler: an admission slot is
	// released only when the handler's work actually finishes, not when
	// TimeoutHandler abandons the response at the deadline (the worker
	// goroutine keeps computing past a 503). Composed the other way,
	// every timed-out request would free its slot while its query kept
	// running, and -max-inflight would no longer bound concurrent work.
	//
	// Tradeoff: TimeoutHandler buffers each response in memory before
	// forwarding it, so with the timeout on (the default), a huge batch
	// response is built fully before the first byte hits the socket.
	// Deployments that stream enormous batches and prefer the old
	// direct-to-socket encoding can set -request-timeout 0.
	var apiHandler http.Handler = s.limit(api)
	if s.requestTimeout > 0 {
		inner := http.TimeoutHandler(apiHandler, s.requestTimeout,
			`{"error":"request timed out"}`)
		apiHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// TimeoutHandler writes its 503 body with no Content-Type
			// (Go would sniff text/plain); pre-setting the header keeps
			// the timeout error JSON like every other API error. Safe
			// for the success path too: every /v1 response is JSON.
			w.Header().Set("Content-Type", "application/json")
			inner.ServeHTTP(w, r)
		})
	}

	root := http.NewServeMux()
	root.HandleFunc("/healthz", s.handleHealthz)
	root.HandleFunc("/readyz", s.handleReadyz)
	root.HandleFunc("/metrics", s.met.handleMetrics)
	root.Handle("/v1/", apiHandler)
	return root
}

// limit is the -max-inflight admission middleware: each API request
// holds one slot until its work finishes (even if TimeoutHandler has
// already answered 503 — see handler), and a request that cannot get a
// slot immediately is rejected with 429 rather than queued — under
// sustained overload a bounded queue only converts overload into
// latency, while a fast 429 lets well-behaved clients back off and
// retry against a server that still has headroom for the traffic it
// admitted. The in-flight gauge counts admitted requests even when the
// limiter is off.
func (s *server) limit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.inflightSem != nil {
			select {
			case s.inflightSem <- struct{}{}:
				defer func() { <-s.inflightSem }()
			default:
				s.met.rejected.Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("server at capacity (%d requests in flight); retry", s.maxInflight))
				return
			}
		}
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"synopses": s.reg.count(),
	})
}

// handleReadyz answers 200 only once markReady ran — i.e. every
// -synopsis file loaded and validated. Like /healthz it sits outside
// the admission limiter and request timeout, so orchestrator probes
// get an honest answer even while the API sheds load.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":    false,
			"synopses": s.reg.count(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":    true,
		"synopses": s.reg.count(),
	})
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	infos := make([]synopsisInfo, 0)
	for _, name := range s.reg.names() {
		syn, _, ok := s.reg.get(name)
		if !ok {
			continue
		}
		infos = append(infos, infoFor(name, syn))
	}
	writeJSON(w, http.StatusOK, map[string]any{"synopses": infos})
}

func (s *server) handleSynopsis(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/synopses/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, http.StatusNotFound, "synopsis name missing or invalid")
		return
	}
	switch r.Method {
	case http.MethodGet:
		syn, _, ok := s.reg.get(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown synopsis %q", name))
			return
		}
		writeJSON(w, http.StatusOK, infoFor(name, syn))
	case http.MethodDelete:
		if s.readonly {
			writeError(w, http.StatusForbidden, "server is read-only (-readonly)")
			return
		}
		if !s.reg.remove(name) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown synopsis %q", name))
			return
		}
		// The generation key already guarantees no stale reads; dropping
		// the entries now just returns the memory promptly. Metric series
		// go with them so cardinality tracks the live registry.
		s.cache.Invalidate(name)
		s.met.forgetSynopsis(name)
		writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
	case http.MethodPut:
		if s.readonly {
			writeError(w, http.StatusForbidden, "server is read-only (-readonly)")
			return
		}
		syn, err := readSynopsisBody(r)
		if err != nil {
			s.met.decodeErrors.Inc()
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.reg.put(name, syn)
		s.cache.Invalidate(name)
		s.met.setSynopsisKind(name, syn)
		writeJSON(w, http.StatusOK, map[string]any{"loaded": name})
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET, PUT, or DELETE")
	}
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := cluster.DecodeBody(body, r.ContentLength, &req, scanQueryRequest); err != nil {
		writeError(w, http.StatusBadRequest, "bad query body: "+err.Error())
		return
	}
	syn, gen, ok := s.reg.get(req.Synopsis)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown synopsis %q", req.Synopsis))
		return
	}
	if i := badRectIndex(req.Rects); i >= 0 {
		q := req.Rects[i]
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("rect %d: non-finite coordinate in [%g,%g,%g,%g]", i, q[0], q[1], q[2], q[3]))
		return
	}
	start := time.Now()
	counts, st, err := s.answer(r.Context(), req.Synopsis, gen, syn, req.Rects)
	if err != nil {
		// The client abandoned the request (or TimeoutHandler hit the
		// deadline) while the fan-out was still walking shards; nothing
		// useful can be written, but answer the goroutine's writer anyway
		// for programmatic callers.
		writeError(w, http.StatusServiceUnavailable, "request cancelled: "+err.Error())
		return
	}
	// Record per-synopsis series only if the name still serves the same
	// generation: a DELETE that raced this query already forgot the
	// name's series, and recording would resurrect them for a retired
	// name. Deferring every per-synopsis observation to this one gated
	// block narrows the window from the whole query to these few
	// instructions; the sliver that remains can at worst re-create a
	// series that the next DELETE drops again. (The old-generation cache
	// entries such a racing query Puts are unreachable by construction
	// and age out of the LRU.)
	if _, g, ok := s.reg.get(req.Synopsis); ok && g == gen {
		name := req.Synopsis
		s.met.latency.With(name).Observe(time.Since(start).Seconds())
		s.met.queryRects.With(name).Add(uint64(len(req.Rects)))
		if st.cached {
			s.met.cacheHits.With(name).Add(uint64(st.hits))
			s.met.cacheMisses.With(name).Add(uint64(st.misses))
		}
		if st.fanouts != nil {
			h := s.met.fanout.With(name)
			for _, f := range st.fanouts {
				h.Observe(float64(f))
			}
		}
	}
	writeJSON(w, http.StatusOK, queryResponse{Synopsis: req.Synopsis, Counts: counts})
}

// answerStats carries the per-synopsis observations of one batch out
// of answer, so the caller can record them (or not — a raced DELETE
// must not resurrect a retired name's series) in one place.
type answerStats struct {
	cached       bool  // cache enabled: hits/misses are meaningful
	hits, misses int   // per-rect cache outcomes
	fanouts      []int // per-miss shard fan-out; nil for monolithic synopses
}

// answer resolves every rectangle, serving what it can from the answer
// cache and computing the misses with dpgrid.QueryStatsCtx across the
// worker pool — so answers are bit-identical whether they come from the
// cache or the synopsis, and every kind takes the same compute path.
// The misses honor ctx (sharded releases between shards, monolithic
// ones per rect): a request whose client has gone away stops burning
// CPU.
// Sharded synopses additionally report per-rect routing stats. A
// non-nil error means the batch was abandoned; no partial results are
// cached.
func (s *server) answer(ctx context.Context, name string, gen uint64, syn dpgrid.Synopsis, rects [][4]float64) ([]float64, answerStats, error) {
	counts := make([]float64, len(rects))
	grects := make([]dpgrid.Rect, len(rects))
	miss := make([]int, 0, len(rects))
	// With caching disabled, skip the per-rect key construction entirely
	// and leave the hit/miss families untouched — an operator who set
	// -cache-entries 0 should not see "cache misses" on /metrics.
	var keys []cache.Key
	if s.cache != nil {
		keys = make([]cache.Key, len(rects))
	}
	for i, q := range rects {
		r := dpgrid.NewRect(q[0], q[1], q[2], q[3])
		grects[i] = r
		if keys == nil {
			miss = append(miss, i)
			continue
		}
		keys[i] = cache.Key{
			Synopsis: name, Gen: gen,
			MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY,
		}
		if v, ok := s.cache.Get(keys[i]); ok {
			counts[i] = v
		} else {
			miss = append(miss, i)
		}
	}
	st := answerStats{
		cached: keys != nil,
		hits:   len(rects) - len(miss),
		misses: len(miss),
	}

	if _, ok := syn.(sharded); ok {
		st.fanouts = make([]int, len(miss))
	}
	var cancelled atomic.Bool
	pool.For(len(miss), 0, func(j int) {
		i := miss[j]
		est, qs, err := dpgrid.QueryStatsCtx(ctx, syn, grects[i])
		if err != nil {
			cancelled.Store(true)
			return
		}
		counts[i] = est
		if st.fanouts != nil {
			st.fanouts[j] = qs.Shards
		}
	})
	if cancelled.Load() {
		return nil, st, context.Cause(ctx)
	}
	if keys != nil {
		for _, i := range miss {
			s.cache.Put(keys[i], counts[i])
		}
	}
	return counts, st, nil
}

// badRectIndex returns the index of the first rect quadruple containing
// a NaN or infinite coordinate, or -1 when all are finite. NewRect
// cannot normalize NaN (every comparison is false) and nothing on the
// serve path consults Rect.IsValid, so without this gate garbage would
// flow straight into Prefix.Query. encoding/json already rejects the
// NaN/Infinity literals and out-of-range numbers, but the handler is
// also driven programmatically (tests, embedding) and this is the
// serving path's last line of defense.
func badRectIndex(rects [][4]float64) int {
	for i, q := range rects {
		for _, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return i
			}
		}
	}
	return -1
}

// readSynopsisBody decodes an uploaded dpgridv2 synopsis of at most
// maxBodyBytes with dpgrid.ReadSynopsis, which decodes the way
// dpgrid.LoadSynopsis decodes -synopsis files (a JSON dump is
// rejected), so an upload is validated and served exactly like a file.
// ReadSynopsis reads into a buffer with no spare capacity, which
// matters because the synopsis retains the buffer for its lifetime.
func readSynopsisBody(r *http.Request) (dpgrid.Synopsis, error) {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	defer io.Copy(io.Discard, body)
	return dpgrid.ReadSynopsis(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && !errors.Is(err, http.ErrHandlerTimeout) {
		// ErrHandlerTimeout is the expected tail of every timed-out
		// request: the worker finishes its query (holding its admission
		// slot) and writes to the writer TimeoutHandler already answered
		// on. Logging it would print one misleading "encoding" error per
		// timeout.
		log.Printf("dpserve: encoding response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
