package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pool"
)

func testPoints(seed int64, n int, dom geom.Domain) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: dom.MinX + rng.Float64()*dom.Width(),
			Y: dom.MinY + rng.Float64()*dom.Height(),
		}
	}
	return pts
}

func TestNewPlanValidation(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 50)
	if _, err := NewPlan(dom, 0, 3); err == nil {
		t.Error("kx = 0 accepted")
	}
	if _, err := NewPlan(dom, 3, -1); err == nil {
		t.Error("ky = -1 accepted")
	}
	if _, err := NewPlan(geom.Domain{}, 2, 2); err == nil {
		t.Error("zero domain accepted")
	}
	if _, err := NewPlan(dom, 1<<12, 1<<12); err == nil {
		t.Error("plan over the tile cap accepted")
	}
	p, err := NewPlan(dom, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTiles() != 8 {
		t.Fatalf("NumTiles = %d, want 8", p.NumTiles())
	}
}

// TestTileIndexPartition: every in-domain point belongs to exactly one
// tile, and that tile's rectangle contains it — the disjointness that
// parallel composition rests on.
func TestTileIndexPartition(t *testing.T) {
	dom := geom.MustDomain(-10, 5, 30, 25)
	plan, err := NewPlan(dom, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(11, 2000, dom)
	// Boundary points, including tile-edge and domain-max coordinates.
	pts = append(pts,
		geom.Point{X: -10, Y: 5}, geom.Point{X: 30, Y: 25},
		geom.Point{X: dom.MinX + dom.Width()/3, Y: 10},
		geom.Point{X: 0, Y: dom.MinY + dom.Height()/2})
	for _, p := range pts {
		i := plan.TileIndex(p)
		if i < 0 || i >= plan.NumTiles() {
			t.Fatalf("TileIndex(%v) = %d out of range", p, i)
		}
		if !plan.Tile(i).Contains(p) {
			t.Fatalf("tile %d %v does not contain its point %v", i, plan.Tile(i).Rect, p)
		}
	}
	if i := plan.TileIndex(geom.Point{X: -11, Y: 10}); i != -1 {
		t.Fatalf("out-of-domain point assigned to tile %d", i)
	}
	// Tiles partition the domain: their areas sum to the domain's.
	var area float64
	for i := 0; i < plan.NumTiles(); i++ {
		area += plan.Tile(i).Area()
	}
	if math.Abs(area-dom.Area()) > 1e-9*dom.Area() {
		t.Fatalf("tile areas sum to %g, domain area %g", area, dom.Area())
	}
}

// TestTileIndexBoundaryRounding: int((x-minX)/w) and minX + i*w can
// round across a tile boundary in opposite directions; TileIndex must
// still land every point in a tile whose rectangle contains it, or the
// per-tile builder would silently drop it from the release.
func TestTileIndexBoundaryRounding(t *testing.T) {
	// A domain/point pair where the raw division assigns the point to a
	// tile whose MinX is one ulp above it.
	dom := geom.MustDomain(-12.457162562603969, 0, 412.1803355086617, 1)
	plan, err := NewPlan(dom, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: 51.23846214808588, Y: 0.5}
	i := plan.TileIndex(p)
	if i < 0 || !plan.Tile(i).Contains(p) {
		t.Fatalf("tile %d %v does not contain %v", i, plan.Tile(i).Rect, p)
	}

	// Randomized sweep over awkward domains: every in-domain point must
	// land in a containing tile, including points sitting exactly on
	// tile edges and the domain's max corner.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		minX := (rng.Float64() - 0.5) * 1000
		minY := (rng.Float64() - 0.5) * 1000
		d := geom.MustDomain(minX, minY, minX+rng.Float64()*1000+1e-6, minY+rng.Float64()*1000+1e-6)
		kx, ky := 1+rng.Intn(30), 1+rng.Intn(30)
		pl, err := NewPlan(d, kx, ky)
		if err != nil {
			t.Fatal(err)
		}
		pts := testPoints(int64(trial), 50, d)
		w, h := d.CellSize(kx, ky)
		for j := 0; j < 10; j++ {
			pts = append(pts,
				geom.Point{X: d.MinX + float64(rng.Intn(kx))*w, Y: d.MinY + rng.Float64()*d.Height()},
				geom.Point{X: d.MinX + rng.Float64()*d.Width(), Y: d.MinY + float64(rng.Intn(ky))*h})
		}
		pts = append(pts, geom.Point{X: d.MaxX, Y: d.MaxY})
		for _, p := range pts {
			i := pl.TileIndex(p)
			if i < 0 || !pl.Tile(i).Contains(p) {
				t.Fatalf("trial %d (%dx%d over %v): tile %d %v does not contain %v",
					trial, kx, ky, d.Rect, i, pl.Tile(i).Rect, p)
			}
		}
	}
}

func TestParseDims(t *testing.T) {
	kx, ky, err := ParseDims("4x2")
	if err != nil || kx != 4 || ky != 2 {
		t.Fatalf("ParseDims(4x2) = %d, %d, %v", kx, ky, err)
	}
	for _, bad := range []string{"", "4", "x", "0x2", "2x-1", "axb", "2x2x2"} {
		if _, _, err := ParseDims(bad); err == nil {
			t.Errorf("ParseDims(%q) accepted", bad)
		}
	}
}

// TestDeterministicAcrossWorkers: for a fixed seed and plan the
// serialized release must be bit-identical for every Workers setting —
// the sharded analogue of the PR 1 parallel-AG guarantee.
func TestDeterministicAcrossWorkers(t *testing.T) {
	dom := geom.MustDomain(0, 0, 80, 80)
	plan, err := NewPlan(dom, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(7, 20000, dom)
	builds := []struct {
		name string
		f    func(opts Options) (*Sharded, error)
	}{
		{"adaptive", func(opts Options) (*Sharded, error) {
			return BuildAdaptive(pts, plan, 1, core.AGOptions{M1: 8}, opts, noise.NewSource(42))
		}},
		{"uniform", func(opts Options) (*Sharded, error) {
			return BuildUniform(pts, plan, 1, core.UGOptions{GridSize: 16}, opts, noise.NewSource(42))
		}},
	}
	for _, bld := range builds {
		t.Run(bld.name, func(t *testing.T) {
			var ref []byte
			for _, workers := range []int{1, 2, 5, 0} {
				s, err := bld.f(Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := s.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = buf.Bytes()
					continue
				}
				if !bytes.Equal(ref, buf.Bytes()) {
					t.Fatalf("Workers=%d released different bits than Workers=1", workers)
				}
			}
		})
	}
}

// TestQuerySumsShardAnswers: Query must be bit-identical to the sum of
// ShardAnswer over all shards in index order (the acceptance criterion;
// non-overlapping shards answer exactly 0).
func TestQuerySumsShardAnswers(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	plan, err := NewPlan(dom, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(3, 30000, dom)
	s, err := BuildAdaptive(pts, plan, 1, core.AGOptions{}, Options{}, noise.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	rects := []geom.Rect{
		geom.NewRect(0, 0, 100, 100),    // full domain: every shard short-circuits
		geom.NewRect(10, 10, 15, 15),    // single tile
		geom.NewRect(-50, -50, 200, 30), // clipped strip
		geom.NewRect(25, 0, 75, 100),    // full columns: interior tiles short-circuit
	}
	for i := 0; i < 50; i++ {
		x0, y0 := rng.Float64()*100, rng.Float64()*100
		rects = append(rects, geom.NewRect(x0, y0, x0+rng.Float64()*60, y0+rng.Float64()*60))
	}
	for _, r := range rects {
		var want float64
		for i := 0; i < s.NumShards(); i++ {
			want += s.ShardAnswer(i, r)
		}
		if got := s.Query(r); got != want {
			t.Errorf("Query(%v) = %v, sum of shard answers = %v", r, got, want)
		}
	}
	// The full-domain query is the sum of every shard's TotalEstimate.
	if got, want := s.Query(dom.Rect), s.TotalEstimate(); got != want {
		t.Errorf("full-domain query %v != TotalEstimate %v", got, want)
	}
}

// TestShardedMatchesExactOnAlignedQueries: with zero noise and queries
// aligned to leaf-cell boundaries, the sharded release must answer
// exact counts — routing and merging add no error of their own.
func TestShardedMatchesExactOnAlignedQueries(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	plan, err := NewPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(6, 5000, dom)
	// 2x2 tiles of 4x4 cells: leaf edges every 12.5 units.
	s, err := BuildUniform(pts, plan, 1, core.UGOptions{GridSize: 4}, Options{}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	rects := []geom.Rect{
		geom.NewRect(0, 0, 100, 100),
		geom.NewRect(12.5, 25, 87.5, 75),
		geom.NewRect(50, 50, 100, 100),
		geom.NewRect(0, 37.5, 62.5, 62.5),
	}
	for _, r := range rects {
		var exact float64
		for _, p := range pts {
			if r.Contains(p) {
				exact++
			}
		}
		if got := s.Query(r); math.Abs(got-exact) > 1e-6 {
			t.Errorf("Query(%v) = %g, exact count %g", r, got, exact)
		}
	}
}

// TestSeqMatchesSlice: the streaming builders must release the same
// bits as the in-memory builders for the same seed.
func TestSeqMatchesSlice(t *testing.T) {
	dom := geom.MustDomain(0, 0, 60, 60)
	plan, err := NewPlan(dom, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(8, 8000, dom)
	a, err := BuildAdaptive(pts, plan, 1, core.AGOptions{M1: 6}, Options{}, noise.NewSource(17))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildAdaptiveSeq(geom.SlicePoints(pts), plan, 1, core.AGOptions{M1: 6}, Options{}, noise.NewSource(17))
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if _, err := a.WriteTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("slice and seq builders released different bits")
	}
}

func TestRoundTrip(t *testing.T) {
	dom := geom.MustDomain(-20, -10, 20, 10)
	plan, err := NewPlan(dom, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(5, 12000, dom)
	for _, tc := range []struct {
		name  string
		build func() (*Sharded, error)
	}{
		{"uniform", func() (*Sharded, error) {
			return BuildUniform(pts, plan, 0.5, core.UGOptions{}, Options{}, noise.NewSource(4))
		}},
		{"adaptive", func() (*Sharded, error) {
			return BuildAdaptive(pts, plan, 0.5, core.AGOptions{}, Options{}, noise.NewSource(4))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			data, err := orig.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := ParseShardedBinary(data)
			if err != nil {
				t.Fatal(err)
			}
			if !loaded.Plan().Equal(orig.Plan()) || loaded.TileKind() != orig.TileKind() {
				t.Fatal("round trip changed the plan or the tile kind")
			}
			if loaded.Epsilon() != orig.Epsilon() {
				t.Fatalf("round trip changed epsilon: %g vs %g", loaded.Epsilon(), orig.Epsilon())
			}
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 30; i++ {
				x0, y0 := -20+rng.Float64()*40, -10+rng.Float64()*20
				r := geom.NewRect(x0, y0, x0+rng.Float64()*20, y0+rng.Float64()*10)
				a, b := orig.Query(r), loaded.Query(r)
				if math.Abs(a-b) > 1e-9 {
					t.Fatalf("round trip changed answer for %v: %g vs %g", r, a, b)
				}
			}
		})
	}
}

func TestNonForkableSource(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	plan, err := NewPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := noise.FromRand(rand.New(rand.NewSource(1)))
	if _, err := BuildUniform(nil, plan, 1, core.UGOptions{GridSize: 2}, Options{Workers: 4}, src); err == nil {
		t.Error("Workers > 1 with a non-Forkable source accepted")
	}
	s, err := BuildUniform(nil, plan, 1, core.UGOptions{GridSize: 2}, Options{Workers: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
}

func TestBuildValidation(t *testing.T) {
	dom := geom.MustDomain(0, 0, 10, 10)
	plan, err := NewPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildUniform(nil, plan, 1, core.UGOptions{}, Options{}, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := BuildUniform(nil, plan, 0, core.UGOptions{}, Options{}, noise.NewSource(1)); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := BuildUniform(nil, Plan{}, 1, core.UGOptions{}, Options{}, noise.NewSource(1)); err == nil {
		t.Error("zero plan accepted")
	}
}

// rawManifest hand-assembles a version-2 sharded manifest around the
// given tile containers, so tests can plant values AppendBinary would
// never emit.
func rawManifest(dom [4]float64, eps float64, kx, ky uint32, kind codec.Kind, tiles ...[]byte) []byte {
	var blob []byte
	var offsets []uint64
	for _, tile := range tiles {
		for len(blob)%8 != 0 {
			blob = append(blob, 0)
		}
		offsets = append(offsets, uint64(len(blob)), uint64(len(tile)))
		blob = append(blob, tile...)
	}
	e := codec.NewEnc(nil, codec.KindSharded)
	for _, v := range dom {
		e.F64(v)
	}
	e.F64(eps)
	e.U32(kx)
	e.U32(ky)
	e.U16(uint16(kind))
	e.U64(uint64(len(tiles)))
	for _, v := range offsets {
		e.U64(v)
	}
	e.Align()
	e.U64(uint64(len(blob)))
	e.Raw(blob)
	return e.Bytes()
}

// TestParseShardedRejectsCorrupt exercises the manifest validation
// paths one by one.
func TestParseShardedRejectsCorrupt(t *testing.T) {
	dom := geom.MustDomain(0, 0, 20, 20)
	plan, err := NewPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildUniform(nil, plan, 1, core.UGOptions{GridSize: 2}, Options{}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	var tiles [][]byte
	for i := 0; i < s.NumShards(); i++ {
		tile, err := s.Shard(i).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		tiles = append(tiles, tile)
	}
	agTile, err := core.BuildAdaptiveGrid(nil, plan.Tile(0), 1, core.AGOptions{M1: 1}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	agBin, err := agTile.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	box := [4]float64{0, 0, 20, 20}
	valid := rawManifest(box, 1, 2, 1, codec.KindUniform, tiles...)
	if _, err := ParseShardedBinary(valid); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	future := bytes.Clone(valid)
	binary.LittleEndian.PutUint16(future[len(codec.Magic):], 99)

	cases := map[string][]byte{
		"truncated":          valid[:len(valid)/2],
		"not json":           []byte("junk"),
		"wrong format":       tiles[0],
		"bad version":        future,
		"bad domain":         rawManifest([4]float64{5, 0, 0, 20}, 1, 2, 1, codec.KindUniform, tiles...),
		"bad epsilon":        rawManifest(box, -1, 2, 1, codec.KindUniform, tiles...),
		"bad plan":           rawManifest(box, 1, 0, 1, codec.KindUniform),
		"bad shard format":   rawManifest(box, 1, 2, 1, codec.KindSharded, valid, valid),
		"shard count":        rawManifest(box, 1, 2, 2, codec.KindUniform, tiles...),
		"shard not a syn":    rawManifest(box, 1, 2, 1, codec.KindUniform, []byte("nope"), tiles[1]),
		"huge tile counts":   rawManifest(box, 1, 99999, 99999, codec.KindUniform, tiles...),
		"shard fmt mismatch": rawManifest(box, 1, 2, 1, codec.KindUniform, agBin, tiles[1]),
		// A shard payload that parses but covers the wrong tile.
		"swapped tiles": rawManifest(box, 1, 2, 1, codec.KindUniform, tiles[1], tiles[0]),
		// Epsilon mismatch between manifest and shard payload.
		"epsilon mismatch": rawManifest(box, 2, 2, 1, codec.KindUniform, tiles...),
	}
	for name, data := range cases {
		if _, err := ParseShardedBinary(data); err == nil {
			t.Errorf("%s: corrupt manifest accepted", name)
		}
	}
}

// TestOverlappingTiles: the exported routing primitive names exactly
// the tiles routeQuery visits, in the order it visits them — so a
// placement layer that partitions these indices across nodes and sums
// per-tile answers in this order reproduces Query bit for bit.
func TestOverlappingTiles(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	plan, err := NewPlan(dom, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		r    geom.Rect
		want []int
	}{
		{"full domain", geom.NewRect(0, 0, 100, 100),
			[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{"single tile", geom.NewRect(10, 10, 15, 15), []int{0}},
		{"center straddle", geom.NewRect(45, 45, 55, 55), []int{5, 6, 9, 10}},
		{"bottom strip clipped", geom.NewRect(-50, -50, 200, 20), []int{0, 1, 2, 3}},
		{"outside domain", geom.NewRect(200, 200, 300, 300), nil},
		{"zero plan", geom.NewRect(0, 0, 1, 1), nil},
	}
	for _, tc := range cases {
		p := plan
		if tc.name == "zero plan" {
			p = Plan{}
		}
		got := p.OverlappingTiles(tc.r)
		if len(got) != len(tc.want) {
			t.Errorf("%s: OverlappingTiles = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: OverlappingTiles = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}

	// Cross-check against the fan-out count QueryStatsCtx reports, and
	// against the sum of per-tile answers in returned order.
	pts := testPoints(7, 20000, dom)
	s, err := BuildUniform(pts, plan, 1, core.UGOptions{}, Options{}, noise.NewSource(17))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		x0, y0 := rng.Float64()*110-5, rng.Float64()*110-5
		r := geom.NewRect(x0, y0, x0+rng.Float64()*70, y0+rng.Float64()*70)
		tiles := plan.OverlappingTiles(r)
		est, qs := statsOf(t, s.QueryStatsCtx, r)
		if len(tiles) != qs.Shards {
			t.Fatalf("rect %v: %d overlapping tiles, QueryStatsCtx visited %d", r, len(tiles), qs.Shards)
		}
		var sum float64
		for _, ti := range tiles {
			sum += s.ShardAnswer(ti, r)
		}
		if sum != est {
			t.Errorf("rect %v: ordered per-tile sum %v != Query %v", r, sum, est)
		}
	}
}

// TestQueryStatsCtx: an un-cancelled context answers bit-identically
// to Query; a cancelled one abandons the fan-out with the context's
// error on both the built and the decoded release.
func TestQueryStatsCtx(t *testing.T) {
	dom := geom.MustDomain(0, 0, 100, 100)
	plan, err := NewPlan(dom, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(5, 10000, dom)
	s, err := BuildUniform(pts, plan, 1, core.UGOptions{}, Options{}, noise.NewSource(23))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ParseShardedBinary(bin)
	if err != nil {
		t.Fatal(err)
	}

	r := geom.NewRect(5, 5, 95, 95)
	est, qs, err := s.QueryStatsCtx(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Query(r); est != want || qs.Shards != 9 {
		t.Fatalf("ctx query = %v (%d shards), want %v (9 shards)", est, qs.Shards, want)
	}
	vest, _, err := view.QueryStatsCtx(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if vest != est {
		t.Fatalf("view ctx query %v != eager %v", vest, est)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.QueryStatsCtx(cancelled, r); err != context.Canceled {
		t.Fatalf("cancelled eager query err = %v, want context.Canceled", err)
	}
	if _, _, err := view.QueryStatsCtx(cancelled, r); err != context.Canceled {
		t.Fatalf("cancelled view query err = %v, want context.Canceled", err)
	}
}

// TestQueryBatchMatchesQuery: the batch fan-out must return the same
// answers as sequential Query calls, in input order.
func TestQueryBatchMatchesQuery(t *testing.T) {
	dom := geom.MustDomain(0, 0, 50, 50)
	plan, err := NewPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(2, 6000, dom)
	s, err := BuildAdaptive(pts, plan, 1, core.AGOptions{}, Options{}, noise.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	rects := make([]geom.Rect, 300)
	for i := range rects {
		x0, y0 := rng.Float64()*50, rng.Float64()*50
		rects[i] = geom.NewRect(x0, y0, x0+rng.Float64()*25, y0+rng.Float64()*25)
	}
	got := pool.Map(rects, 0, s.Query)
	if len(got) != len(rects) {
		t.Fatalf("batch returned %d answers for %d rects", len(got), len(rects))
	}
	for i, r := range rects {
		if want := s.Query(r); got[i] != want {
			t.Errorf("rect %d: batch %v, direct %v", i, got[i], want)
		}
	}
}
