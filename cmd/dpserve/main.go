// Command dpserve serves differentially private count queries over HTTP
// from previously released synopsis files (see dpgrid -save and
// cmd/dpgen). Serving is pure post-processing: the privacy budget was
// spent when each synopsis was built, so the server can answer unlimited
// query traffic at no additional privacy cost.
//
// Usage:
//
//	dpserve -listen :8080 -synopsis checkin=checkin.ag.dpgrid -synopsis road=road.ug.dpgrid
//
// Endpoints:
//
//	GET    /healthz              liveness + registered synopsis count
//	GET    /readyz               readiness: 503 until every -synopsis file
//	                             has loaded and validated, 200 after —
//	                             point rollout gates here, liveness probes
//	                             at /healthz
//	GET    /metrics              Prometheus text exposition: per-synopsis
//	                             query counts, answer-time histograms,
//	                             shard fan-out, cache hit/miss, decode
//	                             errors, admission drops
//	GET    /v1/synopses          list registered synopses with metadata
//	GET    /v1/synopses/<name>   metadata for one synopsis
//	PUT    /v1/synopses/<name>   register the synopsis serialized in the body
//	DELETE /v1/synopses/<name>   retire a synopsis (PUT and DELETE are
//	                             disabled by -readonly; there is no auth,
//	                             so keep writable registries on trusted nets)
//	POST   /v1/query             answer a batch of rectangle count queries
//	POST   /v1/cluster/query     per-tile partial answers for a sharded
//	                             release (the backend half of cluster mode)
//
// With -cluster -placement placement.json the process is instead a
// scatter-gather router over a fleet of backend dpserve nodes: it
// serves the same /v1/query surface, fanning each rectangle out to
// only the backends whose tiles overlap it and merging the partials
// into an answer bit-identical to single-node serving. Node loss
// degrades gracefully (partial answers with the missing tile list)
// rather than failing the query; see the README's "Cluster mode".
//
// Monolithic (UG/AG) and geo-sharded releases are served through the
// same registry: a sharded manifest loads as one named synopsis whose
// queries fan out to only the overlapping shards, so a single daemon
// can serve domains far beyond the monolithic cell cap. Synopsis files
// and uploads are dpgridv2 containers (a JSON dump is rejected), each
// validated and decoded at load by the same loader: releases, and the
// tiles of sharded manifests, decode to grids whose tables alias the
// bytes and answer straight from them, which -mmap keeps in a memory
// mapping instead of on the heap.
//
// A query request names a synopsis and carries rectangles as
// [minX, minY, maxX, maxY] quadruples; the response returns one estimate
// per rectangle, in order:
//
//	{"synopsis": "checkin", "rects": [[-123,45,-120,48], [-80,25,-79,26]]}
//	-> {"synopsis": "checkin", "counts": [10234.1, 512.9]}
//
// Batches are fanned out across one worker per CPU, each rectangle
// answered by dpgrid.QueryStatsCtx on the loaded synopsis (a -mmap
// load is queried through its decoded release), so a single large
// request saturates the machine and an abandoned one stops early.
// Repeated rectangles are answered from a bounded LRU result cache
// (-cache-entries, 0 disables) whose answers are bit-identical to
// recomputation; the cache is invalidated when PUT or DELETE changes
// what a name serves.
//
// Operational limits: -max-inflight rejects API requests beyond the
// bound with 429 (health and metrics stay unthrottled), -request-timeout
// bounds each API request, and SIGINT/SIGTERM trigger a graceful
// shutdown that stops accepting connections and drains in-flight
// requests for up to -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dpgrid/dpgrid/internal/cluster"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// synopsisFlags collects repeated -synopsis name=path flags.
type synopsisFlags []string

// String implements flag.Value.
func (s *synopsisFlags) String() string { return strings.Join(*s, ",") }

// Set validates and appends one name=path spec.
func (s *synopsisFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dpserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dpserve", flag.ContinueOnError)
	listen := fs.String("listen", ":8080", "address to serve HTTP on")
	readonly := fs.Bool("readonly", false, "disable PUT/DELETE /v1/synopses/<name>; serve only synopses loaded at startup")
	cacheEntries := fs.Int("cache-entries", 4096, "result cache capacity in (synopsis, rect) answers; 0 disables caching")
	mmap := fs.Bool("mmap", false, "picks where the bytes live: serve -synopsis files from memory mappings instead of heap reads (falls back to a plain read where mmap is unavailable)")
	maxInflight := fs.Int("max-inflight", 0, "reject API requests beyond this many in flight with 429; 0 means unlimited")
	requestTimeout := fs.Duration("request-timeout", time.Minute, "per-request deadline for /v1 endpoints; 0 disables")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long graceful shutdown waits for in-flight requests")
	clusterMode := fs.Bool("cluster", false, "run as a scatter-gather router over backend dpserve nodes (-placement required)")
	placementPath := fs.String("placement", "", "cluster mode: placement file mapping tiles of sharded releases to backend nodes")
	backendTimeout := fs.Duration("backend-timeout", 2*time.Second, "cluster mode: per-backend attempt timeout")
	backendRetries := fs.Int("backend-retries", 1, "cluster mode: extra attempts after a failed backend exchange")
	breakerThreshold := fs.Int("breaker-threshold", 3, "cluster mode: consecutive failures that open a backend's breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "cluster mode: how long an open breaker sheds a backend")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "cluster mode: background health probe spacing; negative disables")
	placementWatch := fs.Duration("placement-watch", 0, "cluster mode: poll the placement file at this interval and hot-reload on change; 0 disables polling (SIGHUP always reloads)")
	var syns synopsisFlags
	fs.Var(&syns, "synopsis", "synopsis to serve as name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *clusterMode {
		if len(syns) > 0 {
			return fmt.Errorf("-cluster routers own no synopses; drop the -synopsis flags")
		}
		if *placementPath == "" {
			return fmt.Errorf("-cluster requires -placement")
		}
		rs, err := newRouterServer(routerOptions{
			placementPath:  *placementPath,
			requestTimeout: *requestTimeout,
			backend: cluster.Options{
				Timeout:          *backendTimeout,
				Retries:          *backendRetries,
				FailureThreshold: *breakerThreshold,
				Cooldown:         *breakerCooldown,
				ProbeInterval:    *probeInterval,
				Jitter:           noise.NewSource(time.Now().UnixNano()),
			},
		})
		if err != nil {
			return err
		}
		rs.router.Start()
		defer rs.router.Close()

		// Placement hot-reload: SIGHUP swaps in the re-read file, and
		// -placement-watch polls for changes. In-flight queries finish on
		// the placement they started with; a bad file is rejected and the
		// old one keeps serving.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		stopReload := make(chan struct{})
		defer close(stopReload)
		go rs.reloadLoop(hup, *placementWatch, stopReload)

		p := rs.router.Placement()
		log.Printf("dpserve routing %d releases across %d backends (placement %s, generation %d)",
			len(p.ReleaseNames()), len(p.Nodes), *placementPath, p.Generation)
		return serveUntilSignal(newHTTPServer(*listen, rs.handler()), *drainTimeout, nil)
	}
	if *placementPath != "" {
		return fmt.Errorf("-placement is only meaningful with -cluster")
	}
	if *placementWatch != 0 {
		return fmt.Errorf("-placement-watch is only meaningful with -cluster")
	}

	reg := newRegistry()
	srv := newDPServer(reg, serverOptions{
		readonly:       *readonly,
		cacheEntries:   *cacheEntries,
		maxInflight:    *maxInflight,
		requestTimeout: *requestTimeout,
	})

	// Load asynchronously: the listener binds (and /healthz answers)
	// immediately, while /readyz holds 503 until every -synopsis file is
	// decoded and validated. A load failure is fatal, exactly as it was
	// when loading blocked startup — it just surfaces through the serve
	// loop now.
	fatal := make(chan error, 1)
	go func() {
		if err := loadSynopses(reg, syns, *mmap); err != nil {
			fatal <- err
			return
		}
		srv.markReady()
		log.Printf("dpserve ready with %d synopses (cache %d entries, max-inflight %s)",
			reg.count(), *cacheEntries, orUnlimited(*maxInflight))
	}()

	httpSrv := newHTTPServer(*listen, srv.handler())
	log.Printf("dpserve listening on %s; loading %d synopses", *listen, len(syns))
	return serveUntilSignal(httpSrv, *drainTimeout, fatal)
}

func orUnlimited(n int) string {
	if n <= 0 {
		return "unlimited"
	}
	return fmt.Sprint(n)
}

// serveUntilSignal runs the server until it fails, the process
// receives SIGINT/SIGTERM, or fatal delivers a startup error (nil
// disables that arm), then shuts down gracefully: the listener closes
// immediately (a rolling deploy's replacement can bind), idle
// connections drop, and in-flight requests get up to drain to finish
// before the process exits. A second signal during the drain aborts it.
func serveUntilSignal(httpSrv *http.Server, drain time.Duration, fatal <-chan error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		return err
	case err := <-fatal:
		// Startup loading failed while the listener was already up; tear
		// the server down and report the load error, not the shutdown.
		closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(closeCtx)
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("dpserve: shutdown signal received; draining in-flight requests (up to %s)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("dpserve: drained; exiting")
	return nil
}

// loadSynopses registers every -synopsis name=path spec. Duplicate
// names are rejected up front — the flag map used to let the last
// occurrence silently overwrite earlier ones, so a fat-fingered command
// line would serve a different release than the operator listed.
func loadSynopses(reg *registry, specs []string, mmap bool) error {
	paths := make(map[string]string, len(specs))
	for _, spec := range specs {
		name, path, _ := strings.Cut(spec, "=")
		if prev, ok := paths[name]; ok {
			return fmt.Errorf("duplicate -synopsis name %q (%s and %s)", name, prev, path)
		}
		paths[name] = path
	}
	for _, spec := range specs {
		name, path, _ := strings.Cut(spec, "=")
		if err := reg.loadFile(name, path, mmap); err != nil {
			return err
		}
		log.Printf("loaded synopsis %q from %s", name, path)
	}
	return nil
}

// newHTTPServer configures the HTTP server around the handler. Full
// read/write deadlines, not just header timeouts: bodies can be up to
// maxBodyBytes, and without a deadline a slow-loris client trickling a
// body (or draining a response) at a byte a minute pins a handler
// goroutine and its buffers indefinitely. The per-request -request-
// timeout is enforced separately, inside the handler chain.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}
