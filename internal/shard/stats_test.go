package shard

import (
	"context"
	"testing"

	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// buildStatsFixture builds a 4x2 UG mosaic over [0,80]x[0,40] (tiles
// 20x20) and its twin decoded from its container (tiles aliasing the
// container bytes).
func buildStatsFixture(t *testing.T) (*Sharded, *Sharded) {
	t.Helper()
	dom := geom.MustDomain(0, 0, 80, 40)
	plan, err := NewPlan(dom, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(9, 6000, dom)
	eager, err := BuildUniform(pts, plan, 1, core.UGOptions{GridSize: 8}, Options{}, noise.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	data, err := eager.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ParseShardedBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	return eager, view
}

// statsOf runs a QueryStatsCtx method under a live context.
func statsOf(t *testing.T, q func(context.Context, geom.Rect) (float64, QueryStats, error), r geom.Rect) (float64, QueryStats) {
	t.Helper()
	est, st, err := q(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	return est, st
}

func TestQueryStatsFanout(t *testing.T) {
	eager, view := buildStatsFixture(t)
	cases := []struct {
		name   string
		rect   geom.Rect
		shards int
	}{
		{"inside one tile", geom.NewRect(2, 2, 18, 18), 1},
		{"two tiles horizontally", geom.NewRect(15, 2, 25, 18), 2},
		{"four tiles", geom.NewRect(15, 15, 25, 25), 4},
		{"whole domain", geom.NewRect(0, 0, 80, 40), 8},
		{"overhanging", geom.NewRect(-50, -50, 500, 500), 8},
		{"outside", geom.NewRect(200, 200, 300, 300), 0},
	}
	for _, tc := range cases {
		est, st := statsOf(t, eager.QueryStatsCtx, tc.rect)
		if st.Shards != tc.shards {
			t.Errorf("%s: eager fan-out %d, want %d", tc.name, st.Shards, tc.shards)
		}
		if want := eager.Query(tc.rect); est != want {
			t.Errorf("%s: QueryStatsCtx estimate %g != Query %g", tc.name, est, want)
		}
		vest, vst := statsOf(t, view.QueryStatsCtx, tc.rect)
		if vst.Shards != tc.shards {
			t.Errorf("%s: view fan-out %d, want %d", tc.name, vst.Shards, tc.shards)
		}
		if vest != est {
			t.Errorf("%s: view estimate %g != eager %g", tc.name, vest, est)
		}
	}
}
