package dpgrid

import (
	"math"
	"math/rand"
	"testing"
)

func examplePoints(seed int64, n int, dom Domain) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: dom.MinX + rng.Float64()*dom.Width(),
			Y: dom.MinY + rng.Float64()*dom.Height(),
		}
	}
	return pts
}

func TestPublicAPIEndToEnd(t *testing.T) {
	dom, err := NewDomain(0, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	pts := examplePoints(1, 50000, dom)

	builders := []struct {
		name  string
		build func() (Synopsis, error)
	}{
		{"UG", func() (Synopsis, error) {
			return BuildUniformGrid(pts, dom, 1, UGOptions{}, NewNoiseSource(2))
		}},
		{"AG", func() (Synopsis, error) {
			return BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(3))
		}},
		{"KD-hybrid", func() (Synopsis, error) {
			return BuildKDTree(pts, dom, 1, KDTreeOptions{Method: KDHybrid}, NewNoiseSource(4))
		}},
		{"KD-standard", func() (Synopsis, error) {
			return BuildKDTree(pts, dom, 1, KDTreeOptions{Method: KDStandard}, NewNoiseSource(5))
		}},
		{"Privlet", func() (Synopsis, error) {
			return BuildPrivlet(pts, dom, 1, PrivletOptions{GridSize: 64}, NewNoiseSource(6))
		}},
		{"Hierarchy", func() (Synopsis, error) {
			return BuildHierarchy(pts, dom, 1, HierarchyOptions{GridSize: 64, Branching: 4, Depth: 2}, NewNoiseSource(7))
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			syn, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			// On uniform data a quarter-domain query must be ~12500 with
			// generous noise slack.
			got := syn.Query(NewRect(0, 0, 50, 50))
			if math.Abs(got-12500) > 2500 {
				t.Errorf("quarter query = %g, want ~12500", got)
			}
		})
	}
}

func TestSuggestedGridSize(t *testing.T) {
	// Table II pins via the public API.
	if got := SuggestedGridSize(1_000_000, 1); got != 316 {
		t.Errorf("SuggestedGridSize(1M, 1) = %d, want 316", got)
	}
	if got := SuggestedGridSize(1_000_000, 0.1); got != 100 {
		t.Errorf("SuggestedGridSize(1M, 0.1) = %d, want 100", got)
	}
}

func TestAGAccessorsThroughFacade(t *testing.T) {
	dom, _ := NewDomain(0, 0, 10, 10)
	pts := examplePoints(8, 20000, dom)
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(9))
	if err != nil {
		t.Fatal(err)
	}
	if ag.M1() < 10 {
		t.Errorf("M1 = %d, want >= 10", ag.M1())
	}
	if est := ag.TotalEstimate(); math.Abs(est-20000) > 2000 {
		t.Errorf("TotalEstimate = %g, want ~20000", est)
	}
}

func TestFacadeValidationPropagates(t *testing.T) {
	dom, _ := NewDomain(0, 0, 1, 1)
	if _, err := BuildUniformGrid(nil, dom, 0, UGOptions{}, NewNoiseSource(1)); err == nil {
		t.Error("zero eps accepted through facade")
	}
	if _, err := BuildAdaptiveGrid(nil, dom, 1, AGOptions{}, nil); err == nil {
		t.Error("nil source accepted through facade")
	}
}
