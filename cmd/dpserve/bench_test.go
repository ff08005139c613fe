package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dpgrid/dpgrid"
)

// repeatedWorkload is the read-hot traffic shape the result cache
// exists for: many requests cycling over a modest set of distinct
// rectangles (dashboards refreshing fixed viewports, tiles of a slippy
// map, a popular city's bounding box).
func repeatedWorkload(distinct int) [][4]float64 {
	rects := make([][4]float64, distinct)
	for i := range rects {
		x := float64(i%10) * 7
		y := float64(i/10) * 9
		rects[i] = [4]float64{x, y, x + 25, y + 18}
	}
	return rects
}

// testKindSynopsis builds a release of the named kind over 5000 uniform
// points in [0,100]^2, the data testSynopsis uses for its AG.
func testKindSynopsis(t testing.TB, kind string, seed int64) dpgrid.Synopsis {
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
	src := dpgrid.NewNoiseSource(seed)
	var syn dpgrid.Synopsis
	switch kind {
	case "ug":
		syn, err = dpgrid.BuildUniformGrid(pts, dom, 1, dpgrid.UGOptions{}, src)
	case "kdtree":
		syn, err = dpgrid.BuildKDTree(pts, dom, 1, dpgrid.KDTreeOptions{Method: dpgrid.KDHybrid}, src)
	case "hierarchy":
		syn, err = dpgrid.BuildHierarchy(pts, dom, 1, dpgrid.HierarchyOptions{GridSize: 64, Branching: 2, Depth: 3}, src)
	case "privlet":
		syn, err = dpgrid.BuildPrivlet(pts, dom, 1, dpgrid.PrivletOptions{GridSize: 64}, src)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

// BenchmarkAnswerRepeatedRects measures the query execution path (the
// code behind POST /v1/query, minus HTTP/JSON overhead) on a
// repeated-rect workload with the cache on and off. The cached variant
// must win: after the first pass every rect is a bounded-LRU hit that
// skips the synopsis walk entirely — and answers are bit-identical
// either way (TestCachedAnswersBitIdentical locks that in).
func BenchmarkAnswerRepeatedRects(b *testing.B) {
	for _, shape := range []struct {
		name string
		mk   func(testing.TB) dpgrid.Synopsis
	}{
		{"ag", func(t testing.TB) dpgrid.Synopsis { return testSynopsis(t, 91) }},
		{"sharded", func(t testing.TB) dpgrid.Synopsis { return testShardedSynopsis(t, 92) }},
		{"ug", func(t testing.TB) dpgrid.Synopsis { return testKindSynopsis(t, "ug", 93) }},
		{"kdtree", func(t testing.TB) dpgrid.Synopsis { return testKindSynopsis(t, "kdtree", 94) }},
		{"hierarchy", func(t testing.TB) dpgrid.Synopsis { return testKindSynopsis(t, "hierarchy", 95) }},
		{"privlet", func(t testing.TB) dpgrid.Synopsis { return testKindSynopsis(t, "privlet", 96) }},
	} {
		syn := shape.mk(b)
		rects := repeatedWorkload(64)
		for _, entries := range []int{0, 4096} {
			name := fmt.Sprintf("%s/cache=%d", shape.name, entries)
			b.Run(name, func(b *testing.B) {
				reg := newRegistry()
				reg.put("bench", syn)
				s := newDPServer(reg, serverOptions{cacheEntries: entries})
				_, gen, _ := reg.get("bench")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.answer(context.Background(), "bench", gen, syn, rects)
				}
			})
		}
	}
}

// BenchmarkQueryHandler is the L3 rung of the serving ladder: the whole
// POST /v1/query handler (body read and decode, validation, answer,
// response encode) as dpserve serves it by default, behind the request
// timeout, driven through httptest.ResponseRecorder with no socket. The
// body is a 64-rect batch with full-precision coordinates, the shape
// the load drivers send; with the cache on, every rect after the first
// pass is a hit, so the gap to BenchmarkAnswerRepeatedRects is the
// HTTP and JSON cost of a request.
func BenchmarkQueryHandler(b *testing.B) {
	syn := testSynopsis(b, 91)
	rng := rand.New(rand.NewSource(7))
	rects := make([][4]float64, 64)
	for i := range rects {
		x, y := rng.Float64()*80, rng.Float64()*80
		rects[i] = [4]float64{x, y, x + rng.Float64()*20, y + rng.Float64()*20}
	}
	body, err := json.Marshal(queryRequest{Synopsis: "bench", Rects: rects})
	if err != nil {
		b.Fatal(err)
	}
	for _, entries := range []int{0, 4096} {
		b.Run(fmt.Sprintf("cache=%d", entries), func(b *testing.B) {
			reg := newRegistry()
			reg.put("bench", syn)
			h := newDPServer(reg, serverOptions{cacheEntries: entries, requestTimeout: time.Minute}).handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
