package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pool"
)

// Differential query-equivalence suite for the summed-area fast path.
// Every container now carries a SAT trailer, which opens several ways
// to answer the same query: the SAT-backed decode over aligned bytes
// (its tables alias the container), the same decode over misaligned
// bytes (codec copies every section), the decode of the container with
// the trailer stripped (the rebuild path old readers take), and — for
// UG — the freshly built synopsis. Those must agree BIT FOR BIT: the
// trailer is checked bitwise against the body at decode time, and every
// path runs Prefix's arithmetic on identical values in identical order.
// The cell-iteration baseline (QueryIter) sums the same released counts
// in a different order, so it is held to a magnitude-scaled tolerance
// instead.

// satRects is the rect battery: interior, edge-straddling, single-cell,
// sliver, zero-area, full-domain, beyond-domain, and corner cases.
func satRects(dom geom.Domain) []geom.Rect {
	w, h := dom.Width(), dom.Height()
	return []geom.Rect{
		dom.Rect, // full domain exactly
		geom.NewRect(dom.MinX-w, dom.MinY-h, dom.MaxX+w, dom.MaxY+h),                     // superset
		geom.NewRect(dom.MinX+0.25*w, dom.MinY+0.25*h, dom.MaxX-0.25*w, dom.MaxY-0.25*h), // interior
		geom.NewRect(dom.MinX-0.5*w, dom.MinY+0.1*h, dom.MinX+0.5*w, dom.MaxY+0.5*h),     // straddles left+top edges
		geom.NewRect(dom.MinX+0.41*w, dom.MinY+0.37*h, dom.MinX+0.44*w, dom.MinY+0.39*h), // sub-cell sliver
		geom.NewRect(dom.MinX+0.5*w, dom.MinY+0.5*h, dom.MinX+0.5*w, dom.MaxY),           // zero width
		geom.NewRect(dom.MinX, dom.MinY, dom.MinX, dom.MinY),                             // zero area at corner
		geom.NewRect(dom.MaxX+1, dom.MaxY+1, dom.MaxX+2, dom.MaxY+2),                     // fully outside
		geom.NewRect(dom.MinX, dom.MinY, dom.MinX+w/64, dom.MinY+h/64),                   // tiny corner cell
		geom.NewRect(dom.MinX+1e-9, dom.MinY+1e-9, dom.MaxX-1e-9, dom.MaxY-1e-9),         // almost full
	}
}

// stripSAT removes the summed-area trailer from a UG or AG container
// using the pinned wire layout (the layout test below keeps the offsets
// honest), yielding the container a writer without the trailer would
// have produced.
func stripSAT(t *testing.T, data []byte) []byte {
	t.Helper()
	satLen := satTrailerLen(t, data)
	stripped := bytes.Clone(data[: len(data)-satLen : len(data)-satLen])
	return stripped
}

// satTrailerLen computes the trailer's byte length from the container's
// own dimension fields: tag (2) + alignment padding (6: UG and AG
// bodies end 8-byte aligned) + length prefix (8) + (mx+1)*(my+1)
// float64s.
func satTrailerLen(t *testing.T, data []byte) int {
	t.Helper()
	d, kind, err := codec.NewDec(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Domain(); err != nil {
		t.Fatal(err)
	}
	d.F64() // eps
	var mx, my int
	switch kind {
	case codec.KindUniform:
		d.Int32() // m
		mx, my = d.Int32(), d.Int32()
	case codec.KindAdaptive:
		d.F64() // alpha
		mx = d.Int32()
		my = mx
	default:
		t.Fatalf("satTrailerLen: kind %v", kind)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return 2 + 6 + 8 + 8*(mx+1)*(my+1)
}

// querier is the query surface every decoded grid shares.
type querier interface {
	Query(r geom.Rect) float64
}

// satVariant is one way of answering queries about the same release.
type satVariant struct {
	name string
	syn  querier
}

// iterQuerier is the cell-iteration diagnostic surface.
type iterQuerier interface {
	QueryIter(r geom.Rect) float64
}

// ugVariants builds a UG of grid size m and returns the bit-identical
// query paths plus the freshly built synopsis (also bit-identical: the
// encoder serializes its exact tables) and the iteration baseline.
func ugVariants(t *testing.T, m int) (dom geom.Domain, exact []satVariant, iter iterQuerier, scale float64) {
	t.Helper()
	dom = geom.MustDomain(-10, 5, 30, 45)
	u, err := BuildUniformGrid(clusteredPoints(int64(900+m), 4000, dom), dom, 0.8, UGOptions{GridSize: m}, noise.NewSource(int64(900+m)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := u.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	satDec, err := ParseUniformGridBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !satDec.SATBacked() {
		t.Fatal("decode of a SAT-bearing container is not SAT-backed")
	}
	stripped, err := ParseUniformGridBinary(stripSAT(t, data))
	if err != nil {
		t.Fatalf("stripped container rejected: %v", err)
	}
	if stripped.SATBacked() {
		t.Fatal("decode of a stripped container claims SAT backing")
	}
	copied, err := ParseUniformGridBinary(misaligned(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range u.noisy.Values() {
		scale += math.Abs(v)
	}
	return dom, []satVariant{
		{"built", u},
		{"sat-decode", satDec},
		{"copied-decode", copied},
		{"stripped-decode", stripped},
	}, satDec, scale
}

// agVariants is ugVariants for AG at first-level size m1.
func agVariants(t *testing.T, m1 int) (dom geom.Domain, exact []satVariant, iter iterQuerier, scale float64) {
	t.Helper()
	dom = geom.MustDomain(0, 0, 20, 20)
	a, err := BuildAdaptiveGrid(clusteredPoints(int64(700+m1), 6000, dom), dom, 1.1,
		AGOptions{M1: m1, Alpha: 0.4, MaxM2: 6}, noise.NewSource(int64(700+m1)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	satDec, err := ParseAdaptiveGridBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !satDec.SATBacked() {
		t.Fatal("decode of a SAT-bearing container is not SAT-backed")
	}
	stripped, err := ParseAdaptiveGridBinary(stripSAT(t, data))
	if err != nil {
		t.Fatalf("stripped container rejected: %v", err)
	}
	if stripped.SATBacked() {
		t.Fatal("decode of a stripped container claims SAT backing")
	}
	copied, err := ParseAdaptiveGridBinary(misaligned(data))
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.cells {
		scale += math.Abs(a.cells[k].Total())
	}
	return dom, []satVariant{
		{"built", a},
		{"sat-decode", satDec},
		{"copied-decode", copied},
		{"stripped-decode", stripped},
	}, satDec, scale
}

// checkEquivalence runs the rect battery against every variant: decode
// variants bitwise-equal, iteration baseline within a magnitude-scaled
// tolerance.
func checkEquivalence(t *testing.T, dom geom.Domain, exact []satVariant, iter iterQuerier, scale float64) {
	t.Helper()
	tol := math.Max(scale, 1) * 1e-11
	for ri, r := range satRects(dom) {
		base := exact[0].syn.Query(r)
		for _, v := range exact[1:] {
			if got := v.syn.Query(r); math.Float64bits(got) != math.Float64bits(base) {
				t.Errorf("rect %d %v: %s answered %v, %s answered %v (want bitwise equal)",
					ri, r, exact[0].name, base, v.name, got)
			}
		}
		if it := iter.QueryIter(r); math.Abs(it-base) > tol {
			t.Errorf("rect %d %v: iteration baseline %g differs from prefix answer %g by %g (tol %g)",
				ri, r, it, base, it-base, tol)
		}
	}
}

// TestSATDifferentialUG: all UG query paths agree across grid sizes,
// including m=1 (single cell) and m=64 (many cells per query).
func TestSATDifferentialUG(t *testing.T) {
	for _, m := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			dom, exact, iter, scale := ugVariants(t, m)
			checkEquivalence(t, dom, exact, iter, scale)
		})
	}
}

// TestSATDifferentialAG: all AG decode paths agree across first-level
// sizes.
func TestSATDifferentialAG(t *testing.T) {
	for _, m1 := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("m1=%d", m1), func(t *testing.T) {
			dom, exact, iter, scale := agVariants(t, m1)
			checkEquivalence(t, dom, exact, iter, scale)
		})
	}
}

// TestSATDifferentialConcurrent re-runs the battery from 1, 2, and
// GOMAXPROCS workers simultaneously against shared synopses — under
// -race this proves the SAT-backed and aliased paths are free of
// hidden mutable state.
func TestSATDifferentialConcurrent(t *testing.T) {
	domUG, exactUG, iterUG, scaleUG := ugVariants(t, 7)
	domAG, exactAG, iterAG, scaleAG := agVariants(t, 7)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					checkEquivalence(t, domUG, exactUG, iterUG, scaleUG)
					checkEquivalence(t, domAG, exactAG, iterAG, scaleAG)
				}()
			}
			wg.Wait()
		})
	}
}

// TestSATStrippedReencodeGainsTrailer pins forward compatibility: a
// container stripped of its trailer decodes, and re-encoding that
// decoded synopsis reproduces the original trailer bit for bit (the
// trailer is a pure function of the body).
func TestSATStrippedReencodeGainsTrailer(t *testing.T) {
	u := testUG(t)
	data, err := u.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := ParseUniformGridBinary(stripSAT(t, data))
	if err != nil {
		t.Fatal(err)
	}
	again, err := stripped.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-encoding a stripped-decode UG did not reproduce the SAT-bearing container")
	}

	a := testAG(t)
	agData, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	agStripped, err := ParseAdaptiveGridBinary(stripSAT(t, agData))
	if err != nil {
		t.Fatal(err)
	}
	agAgain, err := agStripped.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(agAgain, agData) {
		t.Fatal("re-encoding a stripped-decode AG did not reproduce the SAT-bearing container")
	}
}

// TestSATViewReencodeVerbatim: a decode whose tables alias (view) the
// container bytes re-encodes to exactly those bytes, and so does the
// copying decode of the same bytes misaligned.
func TestSATViewReencodeVerbatim(t *testing.T) {
	for _, tc := range []struct {
		name  string
		data  func(t *testing.T) []byte
		parse func([]byte) (querier, error)
	}{
		{"ug", func(t *testing.T) []byte { d, err := testUG(t).AppendBinary(nil); mustNoErr(t, err); return d },
			func(b []byte) (querier, error) { return ParseUniformGridBinary(b) }},
		{"ag", func(t *testing.T) []byte { d, err := testAG(t).AppendBinary(nil); mustNoErr(t, err); return d },
			func(b []byte) (querier, error) { return ParseAdaptiveGridBinary(b) }},
	} {
		data := tc.data(t)
		for _, in := range [][]byte{data, misaligned(data)} {
			syn, err := tc.parse(in)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			again, err := syn.(interface{ AppendBinary([]byte) ([]byte, error) }).AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Errorf("%s: re-encode changed bytes", tc.name)
			}
		}
	}
}

// TestSATViewMetadata: a decode over the container bytes reports the
// envelope metadata of the synopsis that was encoded.
func TestSATViewMetadata(t *testing.T) {
	u := testUG(t)
	data, err := u.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	uv, err := ParseUniformGridBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if uv.Epsilon() != u.Epsilon() || uv.Domain() != u.Domain() || uv.GridSize() != u.GridSize() {
		t.Errorf("UG decode metadata: eps %g dom %v m %d", uv.Epsilon(), uv.Domain(), uv.GridSize())
	}
	mx, my := u.Dims()
	if vmx, vmy := uv.Dims(); vmx != mx || vmy != my {
		t.Errorf("UG decode dims %dx%d, want %dx%d", vmx, vmy, mx, my)
	}
	if got, want := uv.TotalEstimate(), u.TotalEstimate(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("UG decode TotalEstimate %v, want %v", got, want)
	}

	a := testAG(t)
	agData, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	av, err := ParseAdaptiveGridBinary(agData)
	if err != nil {
		t.Fatal(err)
	}
	if av.Epsilon() != a.Epsilon() || av.Domain() != a.Domain() || av.M1() != a.M1() || av.Alpha() != a.Alpha() ||
		av.LeafCells() != a.LeafCells() || av.MaxM2() != a.MaxM2() {
		t.Errorf("AG decode metadata: eps %g dom %v m1 %d alpha %g leaves %d maxM2 %d",
			av.Epsilon(), av.Domain(), av.M1(), av.Alpha(), av.LeafCells(), av.MaxM2())
	}
	// The built AG's level-1 total is the constrained-inference v'
	// total, which the file does not carry; the rebuild path is the
	// reference.
	stripped, err := ParseAdaptiveGridBinary(stripSAT(t, agData))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := av.TotalEstimate(), stripped.TotalEstimate(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("AG decode TotalEstimate %v, want rebuilt %v", got, want)
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestSATViewBatch: a pool.Map batch through a decode that aliases its
// container matches per-rect Query bitwise in input order.
func TestSATViewBatch(t *testing.T) {
	dom, exact, _, _ := ugVariants(t, 7)
	view := exact[1].syn
	rects := satRects(dom)
	got := pool.Map(rects, 0, view.Query)
	for i, r := range rects {
		if want := view.Query(r); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("rect %d: batch %v, single %v", i, got[i], want)
		}
	}
}
