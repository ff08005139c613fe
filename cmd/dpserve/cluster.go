package main

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/cluster"
	"github.com/dpgrid/dpgrid/internal/obs"
)

// Cluster mode. A dpserve process is either a backend (the default:
// serves synopses, including the per-tile partial-answer endpoint
// below) or, with -cluster, a router: it owns no synopses, reads a
// placement file mapping the tiles of sharded releases to backend
// nodes, and serves /v1/query by scattering each rectangle to the
// overlapping backends and summing the gathered per-tile partials in
// ascending tile order — the same order a single process sums in, so a
// complete merged answer is bit-identical to single-node serving.

// handleClusterQuery is the backend half of the scatter-gather
// protocol: POST /v1/cluster/query asks for the partial answers of a
// set of tiles for a batch of rectangles. It runs behind the same
// admission limiter and request timeout as the rest of the API, and
// checks ctx between tiles so a router that gave up on this backend
// stops costing it CPU.
func (s *server) handleClusterQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req cluster.ShardQueryRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := cluster.DecodeBody(body, r.ContentLength, &req, cluster.ScanShardQueryRequest); err != nil {
		writeError(w, http.StatusBadRequest, "bad shard query body: "+err.Error())
		return
	}
	syn, _, ok := s.reg.get(req.Synopsis)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown synopsis %q", req.Synopsis))
		return
	}
	router, ok := syn.(dpgrid.ShardRouter)
	if !ok {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("synopsis %q is not sharded; cluster queries need a sharded release", req.Synopsis))
		return
	}
	for _, ti := range req.Tiles {
		if ti < 0 || ti >= router.NumShards() {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("tile %d out of range [0,%d)", ti, router.NumShards()))
			return
		}
	}
	if i := badRectIndex(req.Rects); i >= 0 {
		q := req.Rects[i]
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("rect %d: non-finite coordinate in [%g,%g,%g,%g]", i, q[0], q[1], q[2], q[3]))
		return
	}

	ctx := r.Context()
	want := make(map[int]bool, len(req.Tiles))
	for _, ti := range req.Tiles {
		want[ti] = true
	}
	plan := router.Plan()
	parts := make([][]cluster.TilePartial, len(req.Rects))
	for i, q := range req.Rects {
		rect := dpgrid.NewRect(q[0], q[1], q[2], q[3])
		parts[i] = []cluster.TilePartial{}
		for _, ti := range plan.OverlappingTiles(rect) {
			if !want[ti] {
				continue
			}
			if err := ctx.Err(); err != nil {
				writeError(w, http.StatusServiceUnavailable, "request cancelled: "+err.Error())
				return
			}
			parts[i] = append(parts[i], cluster.TilePartial{Tile: ti, Count: router.ShardAnswer(ti, rect)})
		}
	}
	writeJSON(w, http.StatusOK, cluster.ShardQueryResponse{Synopsis: req.Synopsis, Partials: parts})
}

// routerOptions carries the -cluster flags to newRouterServer.
type routerOptions struct {
	placementPath  string
	requestTimeout time.Duration
	backend        cluster.Options
}

// routerServer is the -cluster serving state: the scatter-gather
// router plus the router-level metric families.
type routerServer struct {
	router        *cluster.Router
	obsReg        *obs.Registry
	met           *cluster.Metrics
	placementPath string

	queries  *obs.CounterVec   // router queries by synopsis
	latency  *obs.HistogramVec // router query latency by synopsis
	failures *obs.Counter      // queries failed with all backends down
	rejected *obs.Counter      // queries for unplaced synopses or bad bodies

	requestTimeout time.Duration
}

// newRouterServer loads and validates the placement and assembles the
// router with its metrics. The caller owns starting/closing the
// router's health prober.
func newRouterServer(opts routerOptions) (*routerServer, error) {
	p, err := cluster.LoadPlacement(opts.placementPath)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	met := cluster.NewMetrics(reg)
	rs := &routerServer{
		router:        cluster.NewRouter(p, opts.backend, met),
		obsReg:        reg,
		met:           met,
		placementPath: opts.placementPath,
		queries: reg.CounterVec("dpserve_router_queries_total",
			"Router queries answered, by synopsis.", "synopsis"),
		latency: reg.HistogramVec("dpserve_router_request_seconds",
			"Seconds the router spends in scatter, gather and merge for a POST /v1/query, by synopsis; body decode, validation and response encode fall outside it.", "synopsis", queryLatencyBounds),
		failures: reg.Counter("dpserve_router_unavailable_total",
			"Router queries failed with 503 because every needed backend was down."),
		rejected: reg.Counter("dpserve_router_rejected_total",
			"Router queries rejected before scattering (bad body, unknown synopsis)."),
		requestTimeout: opts.requestTimeout,
	}
	return rs, nil
}

// handler returns the router HTTP API: the same /v1/query surface as a
// backend (so clients need not know which they are talking to), plus
// health, readiness, and metrics endpoints that bypass the request
// timeout.
func (rs *routerServer) handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("/v1/query", rs.handleQuery)

	var apiHandler http.Handler = api
	if rs.requestTimeout > 0 {
		inner := http.TimeoutHandler(apiHandler, rs.requestTimeout, `{"error":"request timed out"}`)
		apiHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			inner.ServeHTTP(w, r)
		})
	}

	root := http.NewServeMux()
	root.HandleFunc("/healthz", rs.handleHealthz)
	root.HandleFunc("/readyz", rs.handleHealthz) // placement validated at startup: ready == alive
	root.HandleFunc("/metrics", rs.handleMetrics)
	root.Handle("/v1/", apiHandler)
	return root
}

func (rs *routerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"mode":     "cluster",
		"releases": rs.router.Placement().ReleaseNames(),
		"backends": rs.router.BackendStatuses(),
	})
}

func (rs *routerServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rs.obsReg.WritePrometheus(w)
}

// handleQuery serves POST /v1/query by scatter-gather. Node loss
// degrades gracefully: the response carries the surviving tiles' sum
// with partial=true and the missing tile list, and only a query whose
// every backend is down fails — 503 with Retry-After, since a breaker
// cooldown or a restarted node may well fix the next attempt.
func (rs *routerServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := cluster.DecodeBody(body, r.ContentLength, &req, scanQueryRequest); err != nil {
		rs.rejected.Inc()
		writeError(w, http.StatusBadRequest, "bad query body: "+err.Error())
		return
	}
	if i := badRectIndex(req.Rects); i >= 0 {
		rs.rejected.Inc()
		q := req.Rects[i]
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("rect %d: non-finite coordinate in [%g,%g,%g,%g]", i, q[0], q[1], q[2], q[3]))
		return
	}
	rects := make([]dpgrid.Rect, len(req.Rects))
	for i, q := range req.Rects {
		rects[i] = dpgrid.NewRect(q[0], q[1], q[2], q[3])
	}

	start := time.Now()
	res, err := rs.router.Query(r.Context(), req.Synopsis, rects)
	switch {
	case errors.Is(err, cluster.ErrUnknownSynopsis):
		rs.rejected.Inc()
		writeError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, cluster.ErrAllBackendsDown):
		rs.failures.Inc()
		secs := int64(rs.router.RetryAfter() / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rs.queries.With(req.Synopsis).Inc()
	rs.latency.With(req.Synopsis).Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, queryResponse{
		Synopsis:     req.Synopsis,
		Counts:       res.Counts,
		Partial:      res.Partial,
		MissingTiles: res.MissingTiles,
		Generation:   res.Generation,
	})
}

// reload re-reads the placement file and atomically swaps it into the
// router. A file that fails to load or validate is rejected: the
// rejection is counted, logged, and the old placement keeps serving —
// a botched placement push can never take down a healthy router.
func (rs *routerServer) reload() error {
	p, err := cluster.LoadPlacement(rs.placementPath)
	if err != nil {
		rs.met.ReloadRejected()
		log.Printf("dpserve: placement reload rejected, keeping generation %d serving: %v",
			rs.router.Generation(), err)
		return err
	}
	gen := rs.router.Reload(p)
	log.Printf("dpserve: placement %s reloaded as generation %d (%d releases, %d backends)",
		rs.placementPath, gen, len(p.ReleaseNames()), len(p.Nodes))
	return nil
}

// reloadLoop drives placement hot-reload until stop closes. Each value
// on hup (SIGHUP in production, a test-owned channel in tests) reloads
// unconditionally; a positive watch interval additionally polls the
// placement file and reloads when its mtime or size changes. In-flight
// queries keep the placement they started with — the swap only affects
// queries that begin after it.
func (rs *routerServer) reloadLoop(hup <-chan os.Signal, watch time.Duration, stop <-chan struct{}) {
	var tick <-chan time.Time
	if watch > 0 {
		t := time.NewTicker(watch)
		defer t.Stop()
		tick = t.C
	}
	lastMod, lastSize := statPlacement(rs.placementPath)
	for {
		select {
		case <-stop:
			return
		case <-hup:
			// Fingerprint before reloading: a rewrite landing during the
			// reload then differs on the next tick instead of being
			// recorded as already loaded.
			lastMod, lastSize = statPlacement(rs.placementPath)
			_ = rs.reload()
		case <-tick:
			mod, size := statPlacement(rs.placementPath)
			if mod != lastMod || size != lastSize {
				lastMod, lastSize = mod, size
				_ = rs.reload()
			}
		}
	}
}

// statPlacement fingerprints the placement file for the -placement-watch
// poll; a stat failure (file briefly missing mid-rename) reads as a
// sentinel that differs from any real file, so the change is caught on
// the next tick.
func statPlacement(path string) (time.Time, int64) {
	fi, err := os.Stat(path)
	if err != nil {
		return time.Time{}, -1
	}
	return fi.ModTime(), fi.Size()
}
