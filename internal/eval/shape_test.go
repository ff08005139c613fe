package eval

import (
	"testing"

	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/datasets"
)

// TestPaperShapeClaims asserts the paper's qualitative results end to end
// on one moderately sized dataset: the orderings a full-scale run
// (`go run ./cmd/dpbench -exp all`) must exhibit hold here too. Pooled
// mean relative error over the paper's six size classes is the metric
// throughout.
func TestPaperShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	d, err := datasets.ByName("landmark", 0.1, 41) // 90k points
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1.0
	sugg := core.SuggestedUGSize(float64(d.N()), eps, core.DefaultC)

	res, err := Run(Config{Dataset: d, Eps: eps, QueriesPerSize: 60, Seed: 42, Parallel: true},
		[]MethodSpec{
			Kst(),         // 0
			Khy(),         // 1
			UGSuggested(), // 2
			AGSuggested(), // 3
			UG(sugg / 4),  // 4: under-partitioned
			UG(sugg * 4),  // 5: over-partitioned
			Privlet(sugg), // 6
		})
	if err != nil {
		t.Fatal(err)
	}
	re := func(i int) float64 { return res.Methods[i].RelAll.Mean }

	// Claim 1 (Figure 5): AG with suggested parameters beats UG with the
	// suggested size.
	if !(re(3) < re(2)) {
		t.Errorf("AG (%g) should beat UG (%g)", re(3), re(2))
	}
	// Claim 2 (Figure 2): KD-standard is clearly worse than KD-hybrid.
	if !(re(1) < re(0)) {
		t.Errorf("Khy (%g) should beat Kst (%g)", re(1), re(0))
	}
	// Claim 3 (Figure 5): UG at the suggested size is at least competitive
	// with KD-hybrid.
	if !(re(2) <= re(1)*1.2) {
		t.Errorf("U-sugg (%g) should be competitive with Khy (%g)", re(2), re(1))
	}
	// Claim 4 (Figure 2): the suggested size beats both a 4x coarser and a
	// 4x finer grid (the U-shape around Guideline 1).
	if !(re(2) < re(4)) {
		t.Errorf("U-sugg (%g) should beat under-partitioned U%d (%g)", re(2), sugg/4, re(4))
	}
	if !(re(2) < re(5)) {
		t.Errorf("U-sugg (%g) should beat over-partitioned U%d (%g)", re(2), sugg*4, re(5))
	}
	// Claim 5 (Figures 4/5): Privlet at moderate grid sizes is worse than
	// UG at the same size.
	if !(re(2) < re(6)) {
		t.Errorf("U-sugg (%g) should beat Privlet (%g) at m=%d", re(2), re(6), sugg)
	}
	// Claim 6 (Figure 5 overall): AG beats every non-AG method here.
	for i := range res.Methods {
		if i == 3 {
			continue
		}
		if !(re(3) < re(i)) {
			t.Errorf("AG (%g) should beat %s (%g)", re(3), res.Methods[i].Method, re(i))
		}
	}
}
