// Package core implements the paper's primary contribution: the Uniform
// Grid (UG) and Adaptive Grid (AG) methods for publishing a differentially
// private synopsis of a two-dimensional point dataset, together with the
// parameter guidelines of section IV.
//
//   - Guideline 1 (UG): grid size m = sqrt(N*eps/c) with c = 10.
//   - Guideline 2 (AG): second-level size m2 = ceil(sqrt(N'*(1-alpha)*eps/c2))
//     with c2 = c/2 = 5, where N' is the first-level cell's noisy count.
//   - First-level AG size m1 = max(10, sqrt(N*eps/c)/4).
//
// The formulas were disambiguated against Table II of the paper and the
// suggested sizes of its Figures 4 and 5; guidelines_test.go pins each
// rule to those published values.
package core

import "math"

// Default parameter constants from the paper's experimental sections.
const (
	// DefaultC is the Guideline 1 constant c; "setting c = 10 works well
	// for datasets of different sizes and different choices of eps".
	DefaultC = 10.0
	// DefaultC2 is the Guideline 2 constant c2 = c/2.
	DefaultC2 = DefaultC / 2
	// DefaultAlpha is the AG budget split between the two levels;
	// "setting alpha in the range of 0.2 to 0.6 give very similar
	// results. We use alpha = 0.5 as the default value."
	DefaultAlpha = 0.5
	// DefaultMaxM2 caps the per-cell second-level grid size as a safety
	// bound against pathological noisy counts; far above anything the
	// paper's datasets produce (their best m2 values are < 100).
	DefaultMaxM2 = 256
	// MinM1 is the lower bound on the AG first-level grid size
	// (paper: m1 = max(10, ...)).
	MinM1 = 10
)

// GuidelineGridSize returns the real-valued Guideline 1 grid size
// sqrt(n*eps/c). Callers round it to an integer; exposing the real value
// lets the m1 rule divide before rounding, matching the paper's Table II
// and Figure 4 annotations exactly.
func GuidelineGridSize(n, eps, c float64) float64 {
	if n <= 0 || eps <= 0 || c <= 0 {
		return 1
	}
	return math.Sqrt(n * eps / c)
}

// SuggestedUGSize returns Guideline 1's integer grid size for a dataset of
// n points under total budget eps: round(sqrt(n*eps/c)), at least 1.
// With c = DefaultC this reproduces the "UG sugg." column of Table II.
func SuggestedUGSize(n, eps, c float64) int {
	m := int(math.Round(GuidelineGridSize(n, eps, c)))
	if m < 1 {
		m = 1
	}
	return m
}

// SuggestedM1 returns the AG first-level grid size
// max(10, round(sqrt(n*eps/c)/4)) (section IV-B). With c = DefaultC this
// reproduces the "suggested m1" annotations of Figure 4 (e.g. 25 and 79
// for the checkin dataset at eps = 0.1 and 1).
func SuggestedM1(n, eps, c float64) int {
	m1 := int(math.Round(GuidelineGridSize(n, eps, c) / 4))
	if m1 < MinM1 {
		m1 = MinM1
	}
	return m1
}

// SuggestedM2 returns Guideline 2's second-level grid size for a
// first-level cell with noisy count nPrime when the remaining (leaf)
// budget is remEps = (1-alpha)*eps: ceil(sqrt(nPrime*remEps/c2)), at
// least 1 and at most maxM2.
func SuggestedM2(nPrime, remEps, c2 float64, maxM2 int) int {
	if nPrime <= 0 || remEps <= 0 || c2 <= 0 {
		return 1
	}
	m2 := int(math.Ceil(math.Sqrt(nPrime * remEps / c2)))
	if m2 < 1 {
		m2 = 1
	}
	if maxM2 > 0 && m2 > maxM2 {
		m2 = maxM2
	}
	return m2
}
