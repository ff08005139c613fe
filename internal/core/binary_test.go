package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

func testUG(t *testing.T) *UniformGrid {
	t.Helper()
	dom := geom.MustDomain(-10, 5, 30, 45)
	u, err := BuildUniformGrid(clusteredPoints(61, 5000, dom), dom, 0.7, UGOptions{GridSize: 17}, noise.NewSource(61))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func testAG(t *testing.T) *AdaptiveGrid {
	t.Helper()
	dom := geom.MustDomain(0, 0, 20, 20)
	a, err := BuildAdaptiveGrid(clusteredPoints(62, 8000, dom), dom, 1.2, AGOptions{M1: 6, Alpha: 0.4}, noise.NewSource(62))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestUGBinaryRoundTripBitIdentical: encode -> decode -> encode must
// reproduce the bytes exactly, and the decoded synopsis must answer
// every query identically.
func TestUGBinaryRoundTripBitIdentical(t *testing.T) {
	orig := testUG(t)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseUniformGridBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.GridSize() != orig.GridSize() || loaded.Epsilon() != orig.Epsilon() || loaded.Domain() != orig.Domain() {
		t.Errorf("metadata lost: %+v", loaded)
	}
	again, err := loaded.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding a decoded UG changed bytes")
	}
	for _, r := range []geom.Rect{
		geom.NewRect(-10, 5, 30, 45),
		geom.NewRect(0, 10, 15, 30),
		geom.NewRect(-9.5, 5.5, -2.25, 12.125),
	} {
		if a, b := orig.Query(r), loaded.Query(r); a != b {
			t.Errorf("Query(%v): %g before, %g after round trip", r, a, b)
		}
	}
}

// TestAGBinaryRoundTripBitIdentical: the AG container persists each
// cell's prefix-sum table, so the round trip is bit-exact — unlike the
// JSON format, which re-derives leaves and re-sums.
func TestAGBinaryRoundTripBitIdentical(t *testing.T) {
	orig := testAG(t)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseAdaptiveGridBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.M1() != orig.M1() || loaded.Alpha() != orig.Alpha() || loaded.Epsilon() != orig.Epsilon() {
		t.Errorf("metadata lost: m1=%d alpha=%g eps=%g", loaded.M1(), loaded.Alpha(), loaded.Epsilon())
	}
	again, err := loaded.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding a decoded AG changed bytes")
	}
	for _, r := range []geom.Rect{
		geom.NewRect(0, 0, 20, 20),
		geom.NewRect(1.5, 2.5, 18.25, 19.75),
		geom.NewRect(7, 7, 8, 8),
	} {
		if a, b := orig.Query(r), loaded.Query(r); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("Query(%v): %v before, %v after round trip", r, a, b)
		}
	}
	if a, b := orig.TotalEstimate(), loaded.TotalEstimate(); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("TotalEstimate: %v vs %v", a, b)
	}
}

// TestAGDecodeAllocsFlat: decoding an AG container allocates a fixed
// number of objects, whatever m1: each cell's table is a grid.Prefix
// value adopted in place in one cells slice, with no per-cell
// allocation.
func TestAGDecodeAllocsFlat(t *testing.T) {
	dom := geom.MustDomain(0, 0, 20, 20)
	allocs := func(m1 int) float64 {
		ag, err := BuildAdaptiveGrid(clusteredPoints(9, 20000, dom), dom, 1, AGOptions{M1: m1}, noise.NewSource(9))
		if err != nil {
			t.Fatal(err)
		}
		data, err := ag.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseAdaptiveGridBinary(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(64)
	if large != small {
		t.Errorf("AG decode: %v allocations at m1 = 4, %v at m1 = 64; want the same count", small, large)
	}
	if small > 16 {
		t.Errorf("AG decode: %v allocations, want at most 16", small)
	}
}

// TestBinaryMatchesJSONAnswers: a synopsis loaded from its container
// answers bit for bit like the built synopsis it was written from —
// the same release the JSON dump renders.
func TestBinaryMatchesJSONAnswers(t *testing.T) {
	orig := testAG(t)
	bin, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ParseAdaptiveGridBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []geom.Rect{
		geom.NewRect(0, 0, 20, 20),
		geom.NewRect(3.3, 1.1, 12.9, 17.2),
	} {
		if a, b := fromBin.Query(r), orig.Query(r); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("Query(%v): binary %g, built %g", r, a, b)
		}
	}
}

// misaligned returns a copy of data starting one byte past an 8-byte
// boundary, so no f64 section can be aliased and every decode takes
// codec's copying branch.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}

// TestValidateMatchesParse: the aliasing decode of aligned bytes and
// the copying decode of the same bytes misaligned validate exactly the
// same. They report the same envelope, and every truncation of each
// payload either loads through both or fails both.
func TestValidateMatchesParse(t *testing.T) {
	ugBin, _ := testUG(t).AppendBinary(nil)
	agBin, _ := testAG(t).AppendBinary(nil)

	cases := []struct {
		name  string
		data  []byte
		parse func([]byte) (querier, error)
	}{
		{"ug", ugBin, func(b []byte) (querier, error) { return ParseUniformGridBinary(b) }},
		{"ag", agBin, func(b []byte) (querier, error) { return ParseAdaptiveGridBinary(b) }},
	}
	type envelope interface {
		Domain() geom.Domain
		Epsilon() float64
	}
	for _, tc := range cases {
		aligned, err := tc.parse(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := tc.parse(misaligned(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		a, c := aligned.(envelope), copied.(envelope)
		if a.Domain() != c.Domain() || a.Epsilon() != c.Epsilon() {
			t.Errorf("%s: copied envelope %v/%g, aliased %v/%g", tc.name, c.Domain(), c.Epsilon(), a.Domain(), a.Epsilon())
		}
		for cut := 0; cut < len(tc.data); cut += 1 + cut/8 {
			trunc := tc.data[:cut]
			_, aErr := tc.parse(trunc)
			_, cErr := tc.parse(misaligned(trunc))
			if (aErr == nil) != (cErr == nil) {
				t.Errorf("%s cut %d: aliased err %v, copied err %v", tc.name, cut, aErr, cErr)
			}
		}
	}
}

// TestBinaryRejectsCorrupt: corrupt containers must fail loudly with no
// panic and no synopsis.
func TestBinaryRejectsCorrupt(t *testing.T) {
	ugBin, _ := testUG(t).AppendBinary(nil)
	agBin, _ := testAG(t).AppendBinary(nil)

	flip := func(data []byte, off int) []byte {
		out := bytes.Clone(data)
		out[off] ^= 0xFF
		return out
	}
	// Offsets: 8 magic + 2 version + 2 kind = 12; domain starts at 12.
	cases := []struct {
		name string
		ug   bool
		data []byte
	}{
		{"ug empty", true, nil},
		{"ug wrong kind", true, agBin},
		{"ug truncated", true, ugBin[:len(ugBin)/2]},
		{"ug trailing bytes", true, append(bytes.Clone(ugBin), 0)},
		// 12-byte header + 32-byte domain + 8-byte eps + 12 bytes of
		// dims = byte 64: the counts-section length prefix.
		{"ug corrupt section length", true, flip(ugBin, 64)},
		{"ag wrong kind", false, ugBin},
		{"ag truncated", false, agBin[:len(agBin)-4]},
		{"ag trailing bytes", false, append(bytes.Clone(agBin), 1, 2)},
	}
	for _, tc := range cases {
		var err error
		if tc.ug {
			_, err = ParseUniformGridBinary(tc.data)
		} else {
			_, err = ParseAdaptiveGridBinary(tc.data)
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// buildRawUG hand-assembles a UG container so tests can plant invalid
// field values that AppendBinary would never emit.
func buildRawUG(dom [4]float64, eps float64, m, mx, my uint32, counts []float64) []byte {
	e := codec.NewEnc(nil, codec.KindUniform)
	for _, v := range dom {
		e.F64(v)
	}
	e.F64(eps)
	e.U32(m)
	e.U32(mx)
	e.U32(my)
	e.F64s(counts)
	return e.Bytes()
}

func TestBinaryRejectsInvalidFields(t *testing.T) {
	dom := [4]float64{0, 0, 1, 1}
	cases := []struct {
		name string
		data []byte
	}{
		{"zero epsilon", buildRawUG(dom, 0, 1, 1, 1, []float64{0})},
		{"nan epsilon", buildRawUG(dom, math.NaN(), 1, 1, 1, []float64{0})},
		{"zero m", buildRawUG(dom, 1, 0, 1, 1, []float64{0})},
		{"zero mx", buildRawUG(dom, 1, 1, 0, 1, []float64{})},
		{"counts mismatch", buildRawUG(dom, 1, 1, 2, 2, []float64{0, 0, 0})},
		{"nan count", buildRawUG(dom, 1, 1, 1, 1, []float64{math.NaN()})},
		{"inf count", buildRawUG(dom, 1, 1, 1, 1, []float64{math.Inf(-1)})},
		{"bad domain order", buildRawUG([4]float64{1, 0, 0, 1}, 1, 1, 1, 1, []float64{0})},
		{"nan domain", buildRawUG([4]float64{math.NaN(), 0, 1, 1}, 1, 1, 1, 1, []float64{0})},
		{"huge dims", buildRawUG(dom, 1, 1, 1<<20, 1<<20, []float64{0})},
	}
	for _, tc := range cases {
		if _, err := ParseUniformGridBinary(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := ParseUniformGridBinary(misaligned(tc.data)); err == nil {
			t.Errorf("%s: misaligned copy accepted", tc.name)
		}
	}
}

// TestAGBinaryRejectsBadSumsTable: a sums section with a non-zero
// border or non-finite entry is corrupt.
func TestAGBinaryRejectsBadSumsTable(t *testing.T) {
	mkAG := func(sums []float64) []byte {
		e := codec.NewEnc(nil, codec.KindAdaptive)
		for _, v := range [4]float64{0, 0, 1, 1} {
			e.F64(v)
		}
		e.F64(1)     // eps
		e.F64(0.5)   // alpha
		e.U32(1)     // m1
		e.F64s(sums) // cell 0: 2x2 sums -> m2 = 1
		return e.Bytes()
	}
	if _, err := ParseAdaptiveGridBinary(mkAG([]float64{0, 0, 0, 5})); err != nil {
		t.Fatalf("valid minimal AG rejected: %v", err)
	}
	for name, sums := range map[string][]float64{
		"nonzero border": {1, 0, 0, 5},
		"nan sum":        {0, 0, 0, math.NaN()},
		"short table":    {0, 0, 0},
		"not a square":   {0, 0, 0, 5, 0},
		"1x1 table":      {0},
		"empty table":    {},
	} {
		if _, err := ParseAdaptiveGridBinary(mkAG(sums)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBinarySmallerThanJSON: the whole point of the codec — at matched
// cell counts the binary file must be smaller than the JSON one.
func TestBinarySmallerThanJSON(t *testing.T) {
	for _, tc := range []struct {
		name string
		bin  func() ([]byte, error)
		json func() (int64, error)
	}{
		{"ug", func() ([]byte, error) { return testUG(t).AppendBinary(nil) },
			func() (int64, error) { var b bytes.Buffer; return testUG(t).WriteTo(&b) }},
		{"ag", func() ([]byte, error) { return testAG(t).AppendBinary(nil) },
			func() (int64, error) { var b bytes.Buffer; return testAG(t).WriteTo(&b) }},
	} {
		bin, err := tc.bin()
		if err != nil {
			t.Fatal(err)
		}
		jsonLen, err := tc.json()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(bin)) >= jsonLen {
			t.Errorf("%s: binary %d bytes >= JSON %d bytes", tc.name, len(bin), jsonLen)
		}
	}
}

// TestBinaryLayoutIsLittleEndian pins the wire layout: the epsilon
// field of a UG container sits right after the 12-byte header + 32-byte
// domain, little endian.
func TestBinaryLayoutIsLittleEndian(t *testing.T) {
	data := buildRawUG([4]float64{0, 0, 1, 1}, 0.75, 1, 1, 1, []float64{3})
	off := 12 + 32
	got := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	if got != 0.75 {
		t.Fatalf("epsilon on the wire = %g, want 0.75", got)
	}
}

// buildRawUGSAT is buildRawUG plus an arbitrary summed-area trailer, so
// tests can plant trailers the encoder would never emit. A nil sums
// slice with tag set writes the tag and a zero-length section; tag 0
// writes codec.SATTag.
func buildRawUGSAT(counts, sums []float64, tag uint16) []byte {
	e := codec.NewEnc(nil, codec.KindUniform)
	for _, v := range [4]float64{0, 0, 1, 1} {
		e.F64(v)
	}
	e.F64(1) // eps
	e.U32(2) // m
	e.U32(2) // mx
	e.U32(2) // my
	e.F64s(counts)
	if tag == 0 {
		tag = codec.SATTag
	}
	e.U16(tag)
	e.F64s(sums)
	return e.Bytes()
}

// TestSATTrailerRejectsCorrupt: every malformed trailer must fail the
// parser over aligned and misaligned bytes alike — wrong tag, nonzero
// padding, wrong length, truncation, border
// violations, non-finite entries, and entries inconsistent with the
// counts. The last case is the critical one: a structurally perfect
// prefix table whose values disagree with the body would silently
// change answers between SAT-backed and rebuild readers.
func TestSATTrailerRejectsCorrupt(t *testing.T) {
	counts := []float64{1, 2, 3, 4}
	// The canonical trailer for counts on a 2x2 grid (what NewPrefix
	// computes): border zeros, then prefix sums.
	good := []float64{
		0, 0, 0,
		0, 1, 3,
		0, 4, 10,
	}
	if _, err := ParseUniformGridBinary(buildRawUGSAT(counts, good, 0)); err != nil {
		t.Fatalf("canonical trailer rejected: %v", err)
	}

	mutate := func(i int, v float64) []float64 {
		out := append([]float64(nil), good...)
		out[i] = v
		return out
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"wrong tag", buildRawUGSAT(counts, good, 0x5454)},
		{"short table", buildRawUGSAT(counts, good[:8], 0)},
		{"long table", buildRawUGSAT(counts, append(mutate(0, 0), 11), 0)},
		{"empty table", buildRawUGSAT(counts, nil, 0)},
		{"nonzero first row", buildRawUGSAT(counts, mutate(1, 5), 0)},
		{"nonzero first col", buildRawUGSAT(counts, mutate(3, 5), 0)},
		{"nan entry", buildRawUGSAT(counts, mutate(4, math.NaN()), 0)},
		{"inf entry", buildRawUGSAT(counts, mutate(8, math.Inf(1)), 0)},
		{"inconsistent interior", buildRawUGSAT(counts, mutate(4, 2), 0)},
		{"inconsistent corner", buildRawUGSAT(counts, mutate(8, 10.000000000000002), 0)},
		{"trailing bytes after trailer", append(buildRawUGSAT(counts, good, 0), 0)},
		{"truncated inside trailer", buildRawUGSAT(counts, good, 0)[:len(buildRawUGSAT(counts, good, 0))-4]},
		// 64-byte body header + 40-byte counts section: the tag sits at
		// byte 104 and its 6 bytes of alignment padding follow.
		{"nonzero trailer padding", func() []byte { b := buildRawUGSAT(counts, good, 0); b[107] = 1; return b }()},
	}
	for _, tc := range cases {
		if _, err := ParseUniformGridBinary(tc.data); err == nil {
			t.Errorf("%s: parse accepted", tc.name)
		}
		if _, err := ParseUniformGridBinary(misaligned(tc.data)); err == nil {
			t.Errorf("%s: misaligned copy accepted", tc.name)
		}
	}
}

// TestSATTrailerOptional: a container ending right after its body (the
// pre-trailer format) is accepted, and its prefix table is rebuilt
// from the counts.
func TestSATTrailerOptional(t *testing.T) {
	data := buildRawUG([4]float64{0, 0, 1, 1}, 1, 2, 2, 2, []float64{1, 2, 3, 4})
	u, err := ParseUniformGridBinary(data)
	if err != nil {
		t.Fatalf("trailerless container rejected: %v", err)
	}
	if u.SATBacked() {
		t.Error("trailerless container loaded with SATBacked=true")
	}
	if got := u.Query(geom.NewRect(0, 0, 1, 1)); got != 10 {
		t.Errorf("full-domain answer %g, want 10", got)
	}
}

// TestValidateReportsSAT: what a load validated is reported through
// SATBacked, which mirrors trailer presence — and is what lets a
// sharded manifest report SATBacked for its whole mosaic.
func TestValidateReportsSAT(t *testing.T) {
	type satBacked interface{ SATBacked() bool }
	ugBin, _ := testUG(t).AppendBinary(nil)
	agBin, _ := testAG(t).AppendBinary(nil)
	u, err := ParseUniformGridBinary(ugBin)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ParseAdaptiveGridBinary(agBin)
	if err != nil {
		t.Fatal(err)
	}
	for name, syn := range map[string]satBacked{"UG": u, "AG": a} {
		if !syn.SATBacked() {
			t.Errorf("encoder-produced %s container loaded with SATBacked=false", name)
		}
	}
	stripped := buildRawUG([4]float64{0, 0, 1, 1}, 1, 2, 2, 2, []float64{1, 2, 3, 4})
	su, err := ParseUniformGridBinary(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if su.SATBacked() {
		t.Error("trailerless UG container loaded with SATBacked=true")
	}
}

// TestAGSATTrailerRejectsInconsistent plants an AG trailer whose
// entries disagree with the per-cell table totals.
func TestAGSATTrailerRejectsInconsistent(t *testing.T) {
	mk := func(sat []float64) []byte {
		e := codec.NewEnc(nil, codec.KindAdaptive)
		for _, v := range [4]float64{0, 0, 1, 1} {
			e.F64(v)
		}
		e.F64(1)                      // eps
		e.F64(0.5)                    // alpha
		e.U32(1)                      // m1
		e.F64s([]float64{0, 0, 0, 5}) // cell 0: m2 = 1, total 5
		e.U16(codec.SATTag)
		e.F64s(sat)
		return e.Bytes()
	}
	if _, err := ParseAdaptiveGridBinary(mk([]float64{0, 0, 0, 5})); err != nil {
		t.Fatalf("consistent AG trailer rejected: %v", err)
	}
	for name, sat := range map[string][]float64{
		"wrong total":    {0, 0, 0, 6},
		"nonzero border": {0, 5, 0, 5},
		"short":          {0, 0, 0},
	} {
		if _, err := ParseAdaptiveGridBinary(mk(sat)); err == nil {
			t.Errorf("%s: parse accepted", name)
		}
	}
}
