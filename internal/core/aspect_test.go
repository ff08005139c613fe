package core

import (
	"math"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

func TestAspectDims(t *testing.T) {
	// checkin-like 360x150 domain: cells should be ~2.4x more columns
	// than rows, with the cell budget preserved.
	dom := geom.MustDomain(-180, -70, 180, 80)
	mx, my := aspectDims(100, dom)
	if mx <= my {
		t.Errorf("wide domain should get more columns: %dx%d", mx, my)
	}
	total := mx * my
	if total < 90*90 || total > 110*110 {
		t.Errorf("cell budget %d far from 10000", total)
	}
	// Cells should be near-square in data units.
	cw := dom.Width() / float64(mx)
	ch := dom.Height() / float64(my)
	if r := cw / ch; r < 0.8 || r > 1.25 {
		t.Errorf("cell aspect ratio %g, want ~1", r)
	}
	// Square domain: no change.
	sq := geom.MustDomain(0, 0, 10, 10)
	mx, my = aspectDims(64, sq)
	if mx != 64 || my != 64 {
		t.Errorf("square domain dims %dx%d, want 64x64", mx, my)
	}
}

func TestAspectAwareUGEndToEnd(t *testing.T) {
	dom := geom.MustDomain(0, 0, 40, 10) // 4:1 domain
	pts := clusteredPoints(71, 8000, dom)
	ug, err := BuildUniformGrid(pts, dom, 1, UGOptions{AspectAware: true}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	mx, my := ug.Dims()
	if mx <= my {
		t.Errorf("dims %dx%d, want mx > my on a 4:1 domain", mx, my)
	}
	// Zero-noise full-domain query remains exact.
	if got := ug.Query(geom.NewRect(0, 0, 40, 10)); math.Abs(got-8000) > 1e-6 {
		t.Errorf("full query = %g, want 8000", got)
	}
}

func TestAspectAwareSerializationRoundTrip(t *testing.T) {
	dom := geom.MustDomain(0, 0, 40, 10)
	pts := clusteredPoints(72, 3000, dom)
	orig, err := BuildUniformGrid(pts, dom, 1, UGOptions{AspectAware: true, GridSize: 20}, noise.NewSource(72))
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseUniformGridBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	omx, omy := orig.Dims()
	lmx, lmy := loaded.Dims()
	if omx != lmx || omy != lmy {
		t.Errorf("dims lost: %dx%d vs %dx%d", omx, omy, lmx, lmy)
	}
	r := geom.NewRect(3.3, 1.1, 36.6, 8.8)
	if a, b := orig.Query(r), loaded.Query(r); a != b {
		t.Errorf("round trip changed answer: %g vs %g", a, b)
	}
}

func TestSquareUGDimsDefault(t *testing.T) {
	dom := geom.MustDomain(0, 0, 40, 10)
	ug, err := BuildUniformGrid(nil, dom, 1, UGOptions{GridSize: 8}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	mx, my := ug.Dims()
	if mx != 8 || my != 8 {
		t.Errorf("default dims %dx%d, want 8x8 (the paper's square grid)", mx, my)
	}
}
