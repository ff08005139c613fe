package dpgrid

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func batchTestData(t *testing.T, n int, seed int64) ([]Point, Domain) {
	t.Helper()
	dom, err := NewDomain(0, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts, dom
}

func batchTestRects(n int, seed int64) []Rect {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]Rect, n)
	for i := range rects {
		rects[i] = NewRect(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
	}
	return rects
}

// QueryBatch and QueryStatsCtx, the batch and serving entry points, must
// agree bit for bit with Query for every synopsis kind and for the
// loaded forms the serving path queries (UG, AG and a sharded manifest
// whose tables alias heap bytes or a memory mapping), at every worker
// count. The misaligned rows load the same containers from an odd
// address, so every section is copied rather than aliased; they must
// answer bit for bit like the aligned load.
func TestQueryBatchAllMethods(t *testing.T) {
	pts, dom := batchTestData(t, 8000, 1)
	rects := batchTestRects(200, 2)
	must := func(s Synopsis, err error) Synopsis {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plan, err := NewShardPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ug := must(BuildUniformGrid(pts, dom, 1, UGOptions{GridSize: 25}, NewNoiseSource(1)))
	ag := must(BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 6}, NewNoiseSource(2)))
	sharded := must(BuildShardedAdaptiveGrid(pts, plan, 1, AGOptions{M1: 4}, ShardOptions{}, NewNoiseSource(7)))
	dir := t.TempDir()
	write := func(name string, s Synopsis) string {
		t.Helper()
		p := filepath.Join(dir, name+".dpgrid")
		if err := WriteSynopsisFileFormat(p, s, FormatBinary); err != nil {
			t.Fatal(err)
		}
		return p
	}
	loaded := func(name string, s Synopsis) Synopsis {
		t.Helper()
		return must(LoadSynopsisFile(write(name, s)))
	}
	mapped := func(name string, s Synopsis) Synopsis {
		t.Helper()
		m, err := MapSynopsisFile(write(name, s))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	misaligned := func(name string, s Synopsis) Synopsis {
		t.Helper()
		data, err := os.ReadFile(write(name, s))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(data)+1)
		copy(buf[1:], data)
		return must(LoadSynopsis(buf[1:]))
	}
	loadedUG, loadedAG, loadedSharded := loaded("loaded-ug", ug), loaded("loaded-ag", ag), loaded("loaded-sharded", sharded)

	for _, tc := range []struct {
		name string
		syn  Synopsis
		ref  Synopsis // when set, answers must equal ref's bitwise
	}{
		{"UG", ug, nil},
		{"AG", ag, nil},
		{"Hierarchy", must(BuildHierarchy(pts, dom, 1, HierarchyOptions{GridSize: 32, Branching: 2, Depth: 3}, NewNoiseSource(3))), nil},
		{"KDHybrid", must(BuildKDTree(pts, dom, 1, KDTreeOptions{Method: KDHybrid}, NewNoiseSource(4))), nil},
		{"Privlet", must(BuildPrivlet(pts, dom, 1, PrivletOptions{GridSize: 32}, NewNoiseSource(5))), nil},
		{"Sharded", sharded, nil},
		{"LoadedUG", loadedUG, nil},
		{"LoadedAG", loadedAG, nil},
		{"LoadedSharded", loadedSharded, nil},
		{"MappedUG", mapped("ug", ug), loadedUG},
		{"MappedAG", mapped("ag", ag), loadedAG},
		{"MappedSharded", mapped("sharded", sharded), loadedSharded},
		{"MisalignedUG", misaligned("misaligned-ug", ug), loadedUG},
		{"MisalignedAG", misaligned("misaligned-ag", ag), loadedAG},
		{"MisalignedSharded", misaligned("misaligned-sharded", sharded), loadedSharded},
	} {
		if tc.ref != nil {
			for i, r := range rects {
				if got, want := tc.syn.Query(r), tc.ref.Query(r); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s rect %d: %v != aligned load's %v", tc.name, i, got, want)
				}
			}
		}
		for _, workers := range []int{0, 1, 4} {
			got := QueryBatch(tc.syn, rects, workers)
			if len(got) != len(rects) {
				t.Fatalf("%s workers=%d: %d results for %d rects", tc.name, workers, len(got), len(rects))
			}
			for i, r := range rects {
				if want := tc.syn.Query(r); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s workers=%d rect %d: batch %v != single %v", tc.name, workers, i, got[i], want)
				}
			}
		}
		for i, r := range rects {
			est, st, err := QueryStatsCtx(context.Background(), tc.syn, r)
			if err != nil {
				t.Fatalf("%s rect %d: QueryStatsCtx: %v", tc.name, i, err)
			}
			if want := tc.syn.Query(r); math.Float64bits(est) != math.Float64bits(want) {
				t.Fatalf("%s rect %d: QueryStatsCtx %v != Query %v", tc.name, i, est, want)
			}
			if st.Shards < 0 || st.Shards > 4 {
				t.Fatalf("%s rect %d: %d shards visited", tc.name, i, st.Shards)
			}
		}
		if got := QueryBatch(tc.syn, nil, 0); len(got) != 0 {
			t.Fatalf("%s: empty batch returned %d results", tc.name, len(got))
		}
	}
}

// QueryStatsCtx answers a monolithic synopsis as one shard and refuses a
// cancelled context with its error.
func TestQueryStatsCtxMonolithic(t *testing.T) {
	pts, dom := batchTestData(t, 2000, 8)
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 4}, NewNoiseSource(9))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRect(10, 10, 60, 60)
	if _, st, err := QueryStatsCtx(context.Background(), ag, r); err != nil || st != (ShardQueryStats{Shards: 1}) {
		t.Fatalf("QueryStatsCtx = %+v, %v; want one shard, no error", st, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := QueryStatsCtx(ctx, ag, r); err != context.Canceled {
		t.Fatalf("cancelled QueryStatsCtx: err = %v, want context.Canceled", err)
	}
}

// Parallel construction through the public facade: same seed, same
// release, for every Workers value.
func TestParallelBuildFacadeDeterministic(t *testing.T) {
	pts, dom := batchTestData(t, 20000, 3)
	rects := batchTestRects(100, 4)

	ref, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{Workers: 1}, NewNoiseSource(42))
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{Workers: 8}, NewNoiseSource(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rects {
		if a, b := par.Query(r), ref.Query(r); a != b {
			t.Fatalf("rect %d: parallel %v != sequential %v", i, a, b)
		}
	}
	if _, ok := NewNoiseSource(1).(ForkableNoiseSource); !ok {
		t.Error("NewNoiseSource should return a ForkableNoiseSource")
	}
}

func TestSynopsisFileRoundTrip(t *testing.T) {
	pts, dom := batchTestData(t, 5000, 5)
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 5}, NewNoiseSource(6))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ag.json")
	if err := WriteSynopsisFile(path, ag); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file stores leaf counts and the reader re-derives prefix
	// tables, so answers can differ in the last few ulps from a
	// different summation order — but no more.
	for _, r := range batchTestRects(50, 7) {
		a, b := got.Query(r), ag.Query(r)
		if diff := math.Abs(a - b); diff > 1e-9*(1+math.Abs(b)) {
			t.Fatalf("round-tripped synopsis answers %v, original %v", a, b)
		}
	}
	if _, err := ReadSynopsisFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("reading a missing file should error")
	}
}
