package main

import (
	"net/http"
	"sync/atomic"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/obs"
)

// queryLatencyBounds buckets per-request query latency from 100µs to
// 10s: the fast edge resolves cache hits and single-shard prefix-table
// reads, the slow edge catches lazy materialization storms and huge
// batches.
var queryLatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// fanoutBounds buckets the per-rectangle shard fan-out. Power-of-two
// bounds span a single-tile hit through a mosaic-wide scan.
var fanoutBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// serverMetrics bundles dpserve's metric families. Every member is
// recorded with one or two atomic operations, so instrumentation rides
// the query hot path without distorting it; /metrics renders the whole
// set in the Prometheus text exposition format.
type serverMetrics struct {
	reg *obs.Registry

	// Per-synopsis serving-path families.
	queryRects       *obs.CounterVec   // rectangles answered
	latency          *obs.HistogramVec // seconds in answer() per POST /v1/query
	fanout           *obs.HistogramVec // shards visited per rectangle
	materializations *obs.CounterVec   // lazy shards decoded on first touch
	cacheHits        *obs.CounterVec
	cacheMisses      *obs.CounterVec
	synopsisKind     *obs.InfoVec // container kind per served synopsis

	// Registry and lifecycle counters.
	decodeErrors *obs.Counter // rejected PUT bodies
	rejected     *obs.Counter // 429s from the admission limiter

	inflight atomic.Int64 // current in-flight API requests
}

// newServerMetrics registers dpserve's metric families. cacheEntries,
// synopsisCount, and mappedBytes are sampled at scrape time, so the
// gauges always report the live value without a write on any mutation
// path.
func newServerMetrics(cacheEntries, synopsisCount, mappedBytes func() float64) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}
	m.queryRects = r.CounterVec("dpserve_query_rects_total",
		"Rectangle count queries answered, by synopsis (cache hits included).", "synopsis")
	m.latency = r.HistogramVec("dpserve_query_request_seconds",
		"Seconds spent answering the rects of a POST /v1/query (cache lookups and synopsis queries), by synopsis; body decode, validation and response encode fall outside it.", "synopsis", queryLatencyBounds)
	m.fanout = r.HistogramVec("dpserve_shard_fanout",
		"Shards visited per rectangle against sharded synopses (cache misses only).", "synopsis", fanoutBounds)
	m.materializations = r.CounterVec("dpserve_lazy_materializations_total",
		"Lazily loaded shards decoded on first touch, by synopsis.", "synopsis")
	m.cacheHits = r.CounterVec("dpserve_cache_hits_total",
		"Rectangle queries answered from the result cache, by synopsis.", "synopsis")
	m.cacheMisses = r.CounterVec("dpserve_cache_misses_total",
		"Rectangle queries computed from the synopsis, by synopsis.", "synopsis")
	m.synopsisKind = r.InfoVec("dpserve_synopsis_kind",
		"Container kind of each registered synopsis (info pattern: value is always 1; join on the synopsis label).",
		"synopsis", "kind")
	m.decodeErrors = r.Counter("dpserve_decode_errors_total",
		"Synopsis uploads rejected because the body failed to decode or validate.")
	m.rejected = r.Counter("dpserve_requests_rejected_total",
		"API requests rejected with 429 by the -max-inflight admission limiter.")
	r.GaugeFunc("dpserve_cache_entries",
		"Result cache entries currently held.", cacheEntries)
	r.GaugeFunc("dpserve_synopses",
		"Synopses currently registered.", synopsisCount)
	r.GaugeFunc("dpserve_mapped_bytes",
		"Bytes of synopsis files currently served through memory mappings (-mmap; 0 when unmapped or on the read fallback).", mappedBytes)
	r.GaugeFunc("dpserve_inflight_requests",
		"API requests currently being served.",
		func() float64 { return float64(m.inflight.Load()) })
	return m
}

// forgetSynopsis drops every per-synopsis series for a retired name —
// symmetric with cache.Invalidate on the DELETE path, so label
// cardinality (and metrics memory) tracks the live registry rather
// than every name ever served. A later re-registration under the same
// name starts its series from zero, which Prometheus rate() handles as
// an ordinary counter reset.
func (m *serverMetrics) forgetSynopsis(name string) {
	m.queryRects.Forget(name)
	m.latency.Forget(name)
	m.fanout.Forget(name)
	m.materializations.Forget(name)
	m.cacheHits.Forget(name)
	m.cacheMisses.Forget(name)
	m.synopsisKind.Forget(name)
}

// setSynopsisKind records the registered synopsis's container kind in
// the dpserve_synopsis_kind info family. Synopsis implementations from
// outside the dpgrid registry have no kind and are labeled "unknown"
// rather than omitted, so the info join never silently loses a name.
func (m *serverMetrics) setSynopsisKind(name string, syn dpgrid.Synopsis) {
	kind := dpgrid.SynopsisKind(unwrap(syn))
	if kind == "" {
		kind = "unknown"
	}
	m.synopsisKind.Set(name, kind)
}

// unwrap reaches through serving wrappers (dpgrid.MappedSynopsis) to
// the decoded synopsis, which is where the metadata interfaces (kind,
// epsilon, domain, shard count) live.
func unwrap(s dpgrid.Synopsis) dpgrid.Synopsis {
	if u, ok := s.(interface{ Unwrap() dpgrid.Synopsis }); ok {
		return u.Unwrap()
	}
	return s
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format.
func (m *serverMetrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Rendering errors here mean the client hung up mid-scrape; there is
	// nothing useful to do about it and the next scrape starts fresh.
	_ = m.reg.WritePrometheus(w)
}
