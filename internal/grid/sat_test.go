package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowRecurrencePrefix is the 2-D table the row recurrence
// sums[(iy+1)*w+ix+1] = sums[iy*w+ix+1] + rowAcc builds, the reference
// every released 2-D table (and its serialized SAT trailer) matches.
func rowRecurrencePrefix(vals []float64, mx, my int) []float64 {
	w := mx + 1
	sums := make([]float64, w*(my+1))
	for iy := 0; iy < my; iy++ {
		var rowAcc float64
		for ix := 0; ix < mx; ix++ {
			rowAcc += vals[iy*mx+ix]
			sums[(iy+1)*w+ix+1] = sums[iy*w+ix+1] + rowAcc
		}
	}
	return sums
}

// axisIntegratedSAT is the whole-table summed-area construction: scatter
// the cells into the interior, then integrate along each axis in turn.
// It is the reference for d >= 3.
func axisIntegratedSAT(vals []float64, dims []int) []float64 {
	size := 1
	for _, n := range dims {
		size *= n + 1
	}
	sums := make([]float64, size)
	idx := make([]int, len(dims))
	for _, v := range vals {
		pi, stride := 0, 1
		for k, i := range idx {
			pi += (i + 1) * stride
			stride *= dims[k] + 1
		}
		sums[pi] = v
		for k := range idx {
			if idx[k]++; idx[k] < dims[k] {
				break
			}
			idx[k] = 0
		}
	}
	stride := 1
	for _, n := range dims {
		block := stride * (n + 1)
		for base := 0; base < size; base += block {
			for i := base + stride; i < base+block; i++ {
				sums[i] += sums[i-stride]
			}
		}
		stride = block
	}
	return sums
}

func randomCells(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		// Noisy counts: mixed signs and magnitudes, so any change of
		// summation order shows in the low bits.
		vals[i] = (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(6)))
	}
	return vals
}

func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("table holds %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d = %v, want %v (bits differ)", i, got[i], want[i])
		}
	}
}

// TestSAT covers the one summed-area table: the builder against the
// reference constructions bit for bit, and the from-sums and cells
// checks against every corruption a decoded table can carry.
func TestSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))

	t.Run("builder/d=2", func(t *testing.T) {
		shapes := [][2]int{{1, 1}, {2, 2}, {7, 7}, {64, 64}, {300, 300}, {11, 5}, {5, 11}}
		for _, sh := range shapes {
			mx, my := sh[0], sh[1]
			vals := randomCells(rng, mx*my)
			sameBits(t, NewSAT([]int{mx, my}, vals).sums, rowRecurrencePrefix(vals, mx, my))
		}
	})
	t.Run("builder/d=1", func(t *testing.T) {
		for _, n := range []int{1, 2, 7, 300} {
			vals := randomCells(rng, n)
			want := make([]float64, n+1)
			var acc float64
			for i, v := range vals {
				acc += v
				want[i+1] = acc
			}
			sameBits(t, NewSAT([]int{n}, vals).sums, want)
		}
	})
	t.Run("builder/d>=3", func(t *testing.T) {
		for _, dims := range [][]int{{1, 1, 1}, {4, 3, 5}, {8, 8, 8}, {3, 4, 2, 5}} {
			n := 1
			for _, d := range dims {
				n *= d
			}
			vals := randomCells(rng, n)
			sameBits(t, NewSAT(dims, vals).sums, axisIntegratedSAT(vals, dims))
		}
	})

	for _, dims := range [][]int{{5}, {4, 3}, {3, 2, 4}} {
		t.Run(fmt.Sprintf("checks/d=%d", len(dims)), func(t *testing.T) {
			n := 1
			for _, d := range dims {
				n *= d
			}
			cells := randomCells(rng, n)
			good := NewSAT(dims, cells).sums
			adopt := func(sums []float64) error {
				s, err := SATFromSums(dims, sums)
				if err != nil {
					return err
				}
				return s.CheckCells(cells)
			}
			if err := adopt(append([]float64(nil), good...)); err != nil {
				t.Fatalf("canonical table rejected: %v", err)
			}
			mutated := func(i int, v float64) []float64 {
				out := append([]float64(nil), good...)
				out[i] = v
				return out
			}
			last := len(good) - 1
			cases := map[string][]float64{
				"short":    good[:last],
				"long":     append(append([]float64(nil), good...), 0),
				"empty":    nil,
				"NaN":      mutated(last, math.NaN()),
				"+Inf":     mutated(last/2, math.Inf(1)),
				"-Inf":     mutated(last, math.Inf(-1)),
				"one ulp":  mutated(last, math.Nextafter(good[last], math.Inf(1))),
				"interior": mutated(last-1, good[last-1]+1),
			}
			// One nonzero entry on each axis's zero border: the entry
			// one past the origin along every other axis.
			for k := range dims {
				i, stride := 0, 1
				for j, dj := range dims {
					if j != k {
						i += stride
					}
					stride *= dj + 1
				}
				cases[fmt.Sprintf("border axis %d", k)] = mutated(i, 1)
			}
			for name, sums := range cases {
				if err := adopt(sums); err == nil {
					t.Errorf("%s: table accepted", name)
				}
			}
			if _, err := SATFromSums(dims, mutated(last, math.Nextafter(good[last], 0))); err != nil {
				t.Errorf("one-ulp change rejected before the cells check: %v", err)
			}
			if err := NewSAT(dims, cells).CheckCells(cells[:n-1]); err == nil {
				t.Error("short cells accepted")
			}
		})
	}

	t.Run("checks/shape", func(t *testing.T) {
		// A 1x1 table: zero border, one interior entry.
		if _, err := SATFromSums([]int{1, 1}, []float64{0, 0, 0, 1}); err != nil {
			t.Errorf("valid 1x1 table rejected: %v", err)
		}
		if _, err := SATFromSums([]int{1, 1}, []float64{1, 0, 0, 1}); err == nil {
			t.Error("nonzero origin accepted")
		}
		for _, dims := range [][]int{nil, {0}, {3, -1}, {MaxCells, 2}, {1 << 40, 1 << 40}} {
			if _, err := SATFromSums(dims, nil); err == nil {
				t.Errorf("dims %v accepted", dims)
			}
		}
	})
}

func TestSATBlockSum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][]int{{6}, {5, 4}, {3, 4, 2}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		cells := randomCells(rng, n)
		s := NewSAT(dims, cells)
		for trial := 0; trial < 200; trial++ {
			lo, hi := make([]int, len(dims)), make([]int, len(dims))
			for k, d := range dims {
				// Independent draws, so some blocks are empty.
				lo[k], hi[k] = rng.Intn(d+1), rng.Intn(d+1)
			}
			var want float64
			idx := make([]int, len(dims))
			for _, v := range cells {
				in := true
				for k, i := range idx {
					in = in && i >= lo[k] && i < hi[k]
				}
				if in {
					want += v
				}
				for k := range idx {
					if idx[k]++; idx[k] < dims[k] {
						break
					}
					idx[k] = 0
				}
			}
			if got := s.BlockSum(lo, hi); math.Abs(got-want) > 1e-9*(1+math.Abs(want))*float64(n) {
				t.Fatalf("dims %v: BlockSum(%v, %v) = %g, want %g", dims, lo, hi, got, want)
			}
		}
	}
}
