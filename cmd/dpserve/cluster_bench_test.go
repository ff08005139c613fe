package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/dpgrid/dpgrid/internal/cluster"
)

// benchPlacement spreads the 6-tile mosaic round-robin over n backend
// URLs and writes the placement file.
func benchPlacement(b *testing.B, urls []string) string {
	b.Helper()
	nodes := make([]map[string]string, len(urls))
	tiles := make([][]int, len(urls))
	for i, u := range urls {
		nodes[i] = map[string]string{"name": fmt.Sprintf("n%d", i), "url": u}
	}
	for ti := 0; ti < 6; ti++ {
		ni := ti % len(urls)
		tiles[ni] = append(tiles[ni], ti)
	}
	assignments := make([]map[string]any, len(urls))
	for i := range urls {
		assignments[i] = map[string]any{"node": fmt.Sprintf("n%d", i), "tiles": tiles[i]}
	}
	placement := map[string]any{
		"version": 1,
		"nodes":   nodes,
		"releases": []map[string]any{{
			"synopsis":    "checkins",
			"domain":      []float64{0, 0, 100, 100},
			"tiles":       "3x2",
			"assignments": assignments,
		}},
	}
	data, err := json.Marshal(placement)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "placement.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// benchReplicatedPlacement writes a v2 placement putting every tile of
// the 6-tile mosaic on two of the three nodes (n0:[0-3], n1:[2-5],
// n2:[4,5,0,1]), so any single node can die without losing coverage.
func benchReplicatedPlacement(b *testing.B, urls []string) string {
	b.Helper()
	if len(urls) != 3 {
		b.Fatalf("replicated placement needs 3 nodes, got %d", len(urls))
	}
	nodes := make([]map[string]string, len(urls))
	for i, u := range urls {
		nodes[i] = map[string]string{"name": fmt.Sprintf("n%d", i), "url": u}
	}
	placement := map[string]any{
		"version": 2,
		"nodes":   nodes,
		"releases": []map[string]any{{
			"synopsis": "checkins",
			"domain":   []float64{0, 0, 100, 100},
			"tiles":    "3x2",
			"assignments": []map[string]any{
				{"node": "n0", "tiles": []int{0, 1, 2, 3}},
				{"node": "n1", "tiles": []int{2, 3, 4, 5}},
				{"node": "n2", "tiles": []int{4, 5, 0, 1}},
			},
		}},
	}
	data, err := json.Marshal(placement)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "placement.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkClusterServe measures end-to-end router query latency
// (HTTP in, scatter over in-process httptest backends, merge, HTTP
// out) as the same 6-tile release spreads across more nodes. Each
// sub-benchmark reports p50-ns and p99-ns alongside the mean: tail
// latency is the number a fan-out architecture has to defend, since
// every query is as slow as its slowest involved backend.
func BenchmarkClusterServe(b *testing.B) {
	syn := testClusterSharded(b, 41)

	// The workload mixes hot small rects (single tile) with wide scans
	// (every tile), cycling deterministically.
	rng := rand.New(rand.NewSource(5))
	workload := make([]queryRequest, 64)
	for i := range workload {
		var r [4]float64
		if i%4 == 0 {
			r = [4]float64{0, 0, 100, 100} // full fan-out
		} else {
			x, y := rng.Float64()*80, rng.Float64()*80
			r = [4]float64{x, y, x + 15, y + 15}
		}
		workload[i] = queryRequest{Synopsis: "checkins", Rects: [][4]float64{r}}
	}

	// runServe drives the workload through a router over the given
	// placement and reports p50/p99.
	runServe := func(b *testing.B, placementPath string) {
		rs, err := newRouterServer(routerOptions{
			placementPath:  placementPath,
			requestTimeout: time.Minute,
			backend:        cluster.Options{ProbeInterval: -1},
		})
		if err != nil {
			b.Fatal(err)
		}
		routerSrv := httptest.NewServer(rs.handler())
		defer routerSrv.Close()

		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			resp, qr := postClusterQuery(b, routerSrv.URL, workload[i%len(workload)])
			lat = append(lat, time.Since(start))
			if resp.StatusCode != 200 || qr.Partial {
				b.Fatalf("query %d: status %d partial %v", i, resp.StatusCode, qr.Partial)
			}
		}
		b.StopTimer()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		quantile := func(q float64) time.Duration {
			if len(lat) == 0 {
				return 0
			}
			i := int(q * float64(len(lat)-1))
			return lat[i]
		}
		b.ReportMetric(float64(quantile(0.50).Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(quantile(0.99).Nanoseconds()), "p99-ns")
	}

	for _, nodes := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			urls := make([]string, nodes)
			for i := range urls {
				srv := startClusterBackend(b, syn)
				urls[i] = srv.URL
			}
			runServe(b, benchPlacement(b, urls))
		})
	}

	// The failover row: three nodes with every tile on two of them, one
	// node killed before the clock starts. Every answer must stay
	// complete (the replica serves the dead node's tiles), and p99 has
	// to stay bounded — the connection-refused failover plus the breaker
	// shedding after it opens is the tail this row tracks against the
	// healthy nodes=3 row.
	b.Run("nodes=3-replicated-kill1", func(b *testing.B) {
		urls := make([]string, 3)
		var victim *httptest.Server
		for i := range urls {
			srv := startClusterBackend(b, syn)
			urls[i] = srv.URL
			if i == 1 {
				victim = srv
			}
		}
		path := benchReplicatedPlacement(b, urls)
		victim.Close()
		runServe(b, path)
	})
}
