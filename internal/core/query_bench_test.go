package core

import (
	"fmt"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// BenchmarkQueryRect pins the perf claim of the summed-area fast path:
// a cell-aligned rectangle answer off the stored SAT costs four corner
// lookups regardless of the rectangle's size, while the cell-iteration
// baseline walks every covered cell. The sub-benchmark grid sweeps the
// query from a single cell to the full domain for both kinds: sat
// ns/query stays flat across the sweep, iter grows superlinearly.
//
// The ",unaligned" rows shift both corners by a fraction of a cell.
// For UG that adds partial edge runs to the same O(1) answer; for AG
// it leaves the aligned fast path, so every level-1 cell on the rect's
// edge is answered from its own leaf table and sat ns/query grows with
// the rect's perimeter in level-1 cells.
func BenchmarkQueryRect(b *testing.B) {
	dom := geom.MustDomain(0, 0, 1024, 1024)

	// Rect spanning k of the m per-axis cells, aligned to cell
	// boundaries at the origin corner — the case the fast path answers
	// from whole-cell sums with no fractional-coverage work. k == m is
	// exactly the full domain.
	rectCells := func(m, k int) geom.Rect {
		cw := dom.Width() / float64(m)
		ch := dom.Height() / float64(m)
		return geom.NewRect(dom.MinX, dom.MinY,
			dom.MinX+float64(k)*cw, dom.MinY+float64(k)*ch)
	}
	// The same k-cell span with its low corner 0.3 of a cell in and its
	// high corner 0.2 of a cell short of the aligned edge: no edge lies
	// on a cell edge.
	rectCellsUnaligned := func(m, k int) geom.Rect {
		cw := dom.Width() / float64(m)
		ch := dom.Height() / float64(m)
		return geom.NewRect(dom.MinX+0.3*cw, dom.MinY+0.3*ch,
			dom.MinX+(float64(k)-0.2)*cw, dom.MinY+(float64(k)-0.2)*ch)
	}

	const m = 128
	ug, err := BuildUniformGrid(clusteredPoints(42, 20000, dom), dom, 1, UGOptions{GridSize: m}, noise.NewSource(42))
	if err != nil {
		b.Fatal(err)
	}
	ag, err := BuildAdaptiveGrid(clusteredPoints(43, 20000, dom), dom, 1, AGOptions{M1: m / 4, MaxM2: 8}, noise.NewSource(43))
	if err != nil {
		b.Fatal(err)
	}

	type querier interface {
		Query(geom.Rect) float64
	}
	kinds := []struct {
		name string
		sat  querier
		iter iterQuerier
		m    int // per-axis resolution the cells= sweep is expressed in
	}{
		{"ug", ug, ug, m},
		{"ag", ag, ag, m / 4},
	}
	for _, kind := range kinds {
		for _, k := range []int{1, kind.m / 8, kind.m / 4, kind.m / 2, kind.m} {
			label := fmt.Sprintf("cells=%d", k)
			if k == kind.m {
				label = "cells=full"
			}
			for _, row := range []struct {
				label string
				r     geom.Rect
			}{
				{label, rectCells(kind.m, k)},
				{label + ",unaligned", rectCellsUnaligned(kind.m, k)},
			} {
				r := row.r
				b.Run(fmt.Sprintf("kind=%s/path=sat/%s", kind.name, row.label), func(b *testing.B) {
					b.ReportAllocs()
					var sink float64
					for i := 0; i < b.N; i++ {
						sink += kind.sat.Query(r)
					}
					benchSink = sink
				})
				b.Run(fmt.Sprintf("kind=%s/path=iter/%s", kind.name, row.label), func(b *testing.B) {
					b.ReportAllocs()
					var sink float64
					for i := 0; i < b.N; i++ {
						sink += kind.iter.QueryIter(r)
					}
					benchSink = sink
				})
			}
		}
	}
}

// benchSink defeats dead-code elimination of the benchmarked queries.
var benchSink float64
