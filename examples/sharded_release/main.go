// Sharded release: scaling the paper's grids past one monolithic
// synopsis with parallel composition.
//
//	go run ./examples/sharded_release
//
// Spatially disjoint tiles see disjoint data, so a KxL mosaic of
// per-tile synopses can spend the *full* epsilon in every tile and the
// whole release is still eps-differentially private. This example
// builds a 4x4 sharded AG release next to a monolithic AG at the same
// total level-1 cell count, compares their accuracy on the same query
// workload, and round-trips the mosaic through the manifest format a
// serving fleet would ship.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"math/rand"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/pointindex"
)

func main() {
	data, err := datasets.ByName("checkin", 0.1, 13)
	if err != nil {
		log.Fatal(err)
	}
	const eps = 1.0

	// Monolithic AG vs a 4x4 mosaic at matched total level-1 cells
	// (48x48 = 16 tiles of 12x12).
	mono, err := dpgrid.BuildAdaptiveGrid(data.Points, data.Domain, eps,
		dpgrid.AGOptions{M1: 48}, dpgrid.NewNoiseSource(99))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := dpgrid.NewShardPlan(data.Domain, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	sharded, err := dpgrid.BuildShardedAdaptiveGrid(data.Points, plan, eps,
		dpgrid.AGOptions{M1: 12}, dpgrid.ShardOptions{}, dpgrid.NewNoiseSource(99))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built monolithic AG (m1=48) and %d-shard mosaic (4x4, m1=12 each) under eps=%g\n",
		sharded.NumShards(), eps)

	// Same random query workload against both; every tile spent the
	// full eps, so the mosaic gives up nothing per tile.
	idx, err := pointindex.New(data.Domain, data.Points)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var monoErr, shardErr float64
	const queries = 200
	rects := make([]dpgrid.Rect, queries)
	for i := range rects {
		w := data.Domain.Width() * (0.02 + 0.3*rng.Float64())
		h := data.Domain.Height() * (0.02 + 0.3*rng.Float64())
		x0 := data.Domain.MinX + rng.Float64()*(data.Domain.Width()-w)
		y0 := data.Domain.MinY + rng.Float64()*(data.Domain.Height()-h)
		rects[i] = dpgrid.NewRect(x0, y0, x0+w, y0+h)
	}
	monoAns := dpgrid.QueryBatch(mono, rects, 0)
	shardAns := dpgrid.QueryBatch(sharded, rects, 0) // routed to overlapping shards only
	for i, r := range rects {
		truth := float64(idx.Count(r))
		monoErr += math.Abs(monoAns[i] - truth)
		shardErr += math.Abs(shardAns[i] - truth)
	}
	fmt.Printf("mean |error| over %d queries: monolithic %.1f, sharded %.1f\n",
		queries, monoErr/queries, shardErr/queries)

	// Ship the mosaic the way dpserve consumes it: one manifest file.
	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsis(&buf, sharded); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	loaded, err := dpgrid.ReadSynopsis(&buf)
	if err != nil {
		log.Fatal(err)
	}
	r := rects[0]
	fmt.Printf("manifest round trip: %d bytes, Query(%v) %.1f -> %.1f\n",
		size, r, sharded.Query(r), loaded.Query(r))
}
