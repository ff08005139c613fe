package hist1d

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dpgrid/dpgrid/internal/noise"
)

func clustered1D(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, 0, n)
	for len(xs) < n {
		var x float64
		if rng.Intn(5) == 0 {
			x = rng.Float64() * 100
		} else if rng.Intn(2) == 0 {
			x = 20 + rng.NormFloat64()*3
		} else {
			x = 70 + rng.NormFloat64()*5
		}
		if x >= 0 && x <= 100 {
			xs = append(xs, x)
		}
	}
	return xs
}

func TestValidation(t *testing.T) {
	src := noise.NewSource(1)
	if _, err := BuildFlat(nil, 0, 100, 10, 1, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := BuildFlat(nil, 100, 0, 10, 1, src); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := BuildFlat(nil, 0, 100, 0, 1, src); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := BuildFlat(nil, 0, 100, 10, 0, src); err == nil {
		t.Error("zero eps accepted")
	}
	if _, err := BuildHierarchical(nil, 0, 100, 10, 2, 0, 1, src); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := BuildHierarchical(nil, 0, 100, 10, 1, 2, 1, src); err == nil {
		t.Error("branching 1 accepted")
	}
	if _, err := BuildHierarchical(nil, 0, 100, 10, 4, 3, 1, src); err == nil {
		t.Error("indivisible level sizes accepted")
	}
}

func TestFlatZeroNoiseExact(t *testing.T) {
	xs := clustered1D(2, 10000)
	h, err := BuildFlat(xs, 0, 100, 50, 1, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Total(); math.Abs(got-10000) > 1e-9 {
		t.Errorf("Total = %g, want 10000", got)
	}
	// Bin-aligned query is exact.
	var want float64
	for _, x := range xs {
		if x >= 20 && x <= 40 {
			want++
		}
	}
	got := h.Range(20, 40)
	// Boundary effects: points exactly at 40 belong to the bin starting
	// at 40; allow a tiny slack relative to the count.
	if math.Abs(got-want) > want*0.01+5 {
		t.Errorf("Query(20,40) = %g, want ~%g", got, want)
	}
}

func TestHierarchicalZeroNoiseExact(t *testing.T) {
	xs := clustered1D(3, 5000)
	h, err := BuildHierarchical(xs, 0, 100, 64, 2, 6, 1, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Total(); math.Abs(got-5000) > 1e-6 {
		t.Errorf("Total = %g, want 5000", got)
	}
}

// TestNaNValuesDropped: a NaN value is out of range, so every builder
// drops it rather than indexing a bin with it.
func TestNaNValuesDropped(t *testing.T) {
	xs := []float64{1, math.NaN(), 2}
	for _, tc := range []struct {
		name  string
		build func() (*Hist, error)
	}{
		{"exact", func() (*Hist, error) { return Exact(xs, 0, 10, 4) }},
		{"flat", func() (*Hist, error) { return BuildFlat(xs, 0, 10, 4, 1, noise.Zero) }},
		{"hierarchical", func() (*Hist, error) { return BuildHierarchical(xs, 0, 10, 4, 2, 3, 1, noise.Zero) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if got := h.Total(); math.Abs(got-2) > 1e-9 {
				t.Errorf("Total = %g, want 2", got)
			}
		})
	}
}

func TestQuerySemantics(t *testing.T) {
	h, err := FromValues(0, 10, []float64{10, 20, 30, 40, 50})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b, want float64
	}{
		{0, 10, 150},  // everything
		{0, 2, 10},    // first bin
		{1, 3, 15},    // half of bin0 + half of bin1
		{-5, 15, 150}, // clipped
		{4, 4, 0},     // degenerate
		{20, 30, 0},   // outside
	}
	for _, tc := range cases {
		if got := h.Range(tc.a, tc.b); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Query(%g,%g) = %g, want %g", tc.a, tc.b, got, tc.want)
		}
	}
	// Reversed arguments normalize.
	if got := h.Range(3, 1); math.Abs(got-15) > 1e-9 {
		t.Errorf("reversed Query = %g, want 15", got)
	}
}

// TestHierarchyBeatsFlatIn1D is the package's reason to exist: for large
// 1D domains, the hierarchical method gives much lower range-query error
// than the flat histogram — the effect the paper says does NOT carry over
// to 2D.
func TestHierarchyBeatsFlatIn1D(t *testing.T) {
	// Note the domain size: hierarchy gains in 1D grow with the number of
	// bins (Hay et al.); at 64k bins and branching 16 the gain is
	// unambiguous, while small domains (~1k bins) only show ~1.2x — both
	// consistent with the paper's analysis that what matters is the ratio
	// of border cells to interior cells.
	xs := clustered1D(5, 100000)
	const bins = 65536 // 16^4
	const eps = 0.5
	rng := rand.New(rand.NewSource(5))

	// Truth histogram for evaluation.
	truth, err := Exact(xs, 0, 100, bins)
	if err != nil {
		t.Fatal(err)
	}

	var flatErr, hierErr float64
	const trials = 3
	const queries = 200
	for trial := 0; trial < trials; trial++ {
		flat, err := BuildFlat(xs, 0, 100, bins, eps, noise.NewSource(int64(100+trial)))
		if err != nil {
			t.Fatal(err)
		}
		hier, err := BuildHierarchical(xs, 0, 100, bins, 16, 5, eps, noise.NewSource(int64(200+trial)))
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < queries; q++ {
			// Mid-to-large ranges, where hierarchy helps most.
			w := 20 + rng.Float64()*70
			a := rng.Float64() * (100 - w)
			want := truth.Range(a, a+w)
			flatErr += math.Abs(flat.Range(a, a+w) - want)
			hierErr += math.Abs(hier.Range(a, a+w) - want)
		}
	}
	gain := flatErr / hierErr
	if gain < 2 {
		t.Errorf("1D hierarchy gain = %.2fx, want >= 2x (flat err %g, hier err %g)",
			gain, flatErr, hierErr)
	}
	t.Logf("1D hierarchy gain: %.2fx", gain)
}

func TestHierarchicalDeterministic(t *testing.T) {
	xs := clustered1D(7, 2000)
	build := func() float64 {
		h, err := BuildHierarchical(xs, 0, 100, 32, 2, 4, 1, noise.NewSource(7))
		if err != nil {
			t.Fatal(err)
		}
		return h.Range(13, 77)
	}
	if a, b := build(), build(); a != b {
		t.Errorf("same seed, different results: %g vs %g", a, b)
	}
}

func TestDepthOneEqualsFlat(t *testing.T) {
	xs := clustered1D(8, 1000)
	flat, err := BuildFlat(xs, 0, 100, 16, 1, noise.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := BuildHierarchical(xs, 0, 100, 16, 2, 1, 1, noise.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := flat.Range(10, 90), hier.Range(10, 90); a != b {
		t.Errorf("depth-1 hierarchy differs from flat: %g vs %g", a, b)
	}
}

func TestFromValuesAndExact(t *testing.T) {
	if _, err := FromValues(1, 0, []float64{1}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := FromValues(0, 1, nil); err == nil {
		t.Error("empty bins accepted")
	}
	h, err := FromValues(0, 10, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Total(); got != 6 {
		t.Errorf("Total = %g, want 6", got)
	}
	if got := h.Bins(); got != 3 {
		t.Errorf("Bins = %d, want 3", got)
	}
	// FromValues copies: mutating the input must not change the histogram.
	vals := []float64{5}
	h2, _ := FromValues(0, 1, vals)
	vals[0] = 99
	if h2.Total() != 5 {
		t.Error("FromValues aliases caller slice")
	}

	if _, err := Exact(nil, 5, 5, 4); err == nil {
		t.Error("Exact degenerate range accepted")
	}
	if _, err := Exact(nil, 0, 1, 0); err == nil {
		t.Error("Exact zero bins accepted")
	}
	he, err := Exact([]float64{0.5, 0.6, 7}, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := he.Total(); got != 3 {
		t.Errorf("Exact Total = %g, want 3", got)
	}
}
