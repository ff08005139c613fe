package grid

import (
	"fmt"
	"math"
	"slices"
)

// SAT is a summed-area (prefix-sum) table over a dense grid of cells
// with per-axis sizes dims, axis 0 fastest. It is the one table behind
// every uniformity-estimate query in the repository: Prefix (d = 2) and
// package gridnd (any d).
//
// The table has (dims[0]+1) x (dims[1]+1) x ... entries, axis 0
// fastest; the entry at index (i0, i1, ...) is the sum of every cell
// whose index is below ik on each axis k. Entries with some ik = 0 form
// the zero border.
//
// A SAT is a two-slice value over the caller's dims and its sums and
// copies neither, so adopting a decoded table allocates nothing.
type SAT struct {
	dims []int
	sums []float64
}

// NewSAT builds the summed-area table of cells, a dims-shaped grid
// stored axis 0 fastest. It keeps dims, which the caller must not
// modify, and reads cells without retaining it. It panics unless dims
// is non-empty and cells holds the product of dims values.
func NewSAT(dims []int, cells []float64) SAT {
	size, n := 1, 1
	for _, d := range dims {
		size *= d + 1
		n *= d
	}
	if len(dims) == 0 || len(cells) != n {
		panic(fmt.Sprintf("grid: %d cells for a %v grid", len(cells), dims))
	}
	t := SAT{dims: dims, sums: make([]float64, size)}
	t.integrate(cells, func(base int, row []float64) error {
		copy(t.sums[base:], row)
		return nil
	})
	return t
}

// SATFromSums adopts sums, a serialized summed-area table of a
// dims-shaped grid, copying neither it nor dims. It checks everything
// that does not need the cells: positive dimensions with at most
// MaxCells cells, the length, the finiteness of every entry and the
// zero border on every axis. CheckCells checks the values against the
// cells.
func SATFromSums(dims []int, sums []float64) (SAT, error) {
	size, cells := 1, 1
	for _, n := range dims {
		// Bounding each axis first keeps the product from overflowing
		// on adversarial sizes.
		if n <= 0 || n > MaxCells/cells {
			return SAT{}, fmt.Errorf("grid: invalid %s grid: sizes must be positive with at most %d cells", shape(dims), MaxCells)
		}
		size *= n + 1
		cells *= n
	}
	if len(dims) == 0 || len(sums) != size {
		return SAT{}, fmt.Errorf("grid: sums table holds %d entries, want %d for a %s grid", len(sums), size, shape(dims))
	}
	for i, v := range sums {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return SAT{}, fmt.Errorf("grid: non-finite prefix sum %g at index %d", v, i)
		}
	}
	// The border entries of axis k are the first stride entries of each
	// block of stride*(dims[k]+1) entries.
	stride := 1
	for k, n := range dims {
		block := stride * (n + 1)
		for base := 0; base < size; base += block {
			for i := base; i < base+stride; i++ {
				if sums[i] != 0 {
					return SAT{}, fmt.Errorf("grid: prefix-sum border entry %d (axis %d) is %g; sums must start at 0", i, k, sums[i])
				}
			}
		}
		stride = block
	}
	return SAT{dims: dims, sums: sums}, nil
}

// shape formats dims as %v does. Formatting a copy keeps dims itself
// from escaping, so a caller's dims literal stays off the heap.
func shape(dims []int) string { return fmt.Sprint(slices.Clone(dims)) }

// CheckCells reports whether the table is, bit for bit, the one NewSAT
// builds from cells. It replays the builder's recurrence row by row
// against the table, holding one row per integrated axis rather than a
// second table. Together with SATFromSums it makes an adopted table
// answer exactly like a rebuilt one.
func (t SAT) CheckCells(cells []float64) error {
	n := 1
	for _, d := range t.dims {
		n *= d
	}
	if len(cells) != n {
		return fmt.Errorf("grid: %d cells for a %v table", len(cells), t.dims)
	}
	return t.integrate(cells, func(base int, row []float64) error {
		for x, want := range row {
			if got := t.sums[base+x]; math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("grid: summed-area entry %d is %g, want %g (inconsistent with cell values)", base+x, got, want)
			}
		}
		return nil
	})
}

// integrate runs the summed-area recurrence over cells and hands each
// interior axis-0 row of the finished table to emit, with the table
// offset of its first entry, in table order. Stage 0 is the row's
// running sum; stage k adds the same row one step back on axis k. That
// is the axis-by-axis integration, so along every axis a value is its
// cell sum plus the finished value before it. Stages 1..d-2 keep the
// rows they still need in rings; the last stage reads the finished row
// from t.sums, which emit has written (the builder) or verified (the
// check) by then. Border rows are zero at every stage and never
// emitted. integrate returns emit's first error.
func (t SAT) integrate(cells []float64, emit func(base int, row []float64) error) error {
	d, side := len(t.dims), t.dims[0]+1
	strides := make([]int, d) // strides of the sums array, axis 0 first
	for k, s := 0, 1; k < d; k++ {
		strides[k] = s
		s *= t.dims[k] + 1
	}
	row := make([]float64, side) // row[0] is on the axis-0 border: always 0
	var rings [][]float64
	if d > 2 {
		rings = make([][]float64, d-1)
		for k := 1; k < d-1; k++ {
			rings[k] = make([]float64, strides[k])
		}
	}
	ci := 0
	for base := 0; base < len(t.sums); base += side {
		border := false
		for k := 1; k < d; k++ {
			border = border || base/strides[k]%(t.dims[k]+1) == 0
		}
		if border {
			for k := 1; k < d-1; k++ {
				clear(rings[k][base%strides[k]:][:side])
			}
			continue
		}
		for x := 1; x < side; x++ {
			row[x] = row[x-1] + cells[ci]
			ci++
		}
		for k := 1; k < d; k++ {
			prev := t.sums[base-strides[k]:] // the last stage's finished row
			if k < d-1 {
				prev = rings[k][base%strides[k]:]
			}
			for x := 1; x < side; x++ {
				row[x] += prev[x]
			}
			if k < d-1 {
				copy(prev, row)
			}
		}
		if err := emit(base+1, row[1:]); err != nil {
			return err
		}
	}
	return nil
}

// Sums exposes the backing table, axis 0 fastest. It is the table
// itself, not a copy; treat it as read-only. Serializers persist it
// directly so a decoded table is bit-identical to the encoded one.
func (t SAT) Sums() []float64 { return t.sums }

// Total returns the sum of all cells.
func (t SAT) Total() float64 { return t.sums[len(t.sums)-1] }

// BlockSum returns the exact sum of the cells with lo[k] <= ik < hi[k]
// on every axis k. lo[k] and hi[k] must lie in [0, dims[k]], as
// AxisSpans' runs do; a block empty on some axis sums to 0. At d = 2 it
// is blockSum2; at any other d it runs inclusion-exclusion over the 2^d
// corners, each picking lo or hi per axis with sign (-1)^(number of lo
// picks).
func (t SAT) BlockSum(lo, hi []int) float64 {
	if len(t.dims) == 2 {
		return blockSum2(t.sums, t.dims[0]+1, lo[0], lo[1], hi[0], hi[1])
	}
	for k := range t.dims {
		if lo[k] >= hi[k] {
			return 0
		}
	}
	var total float64
	for mask := 0; mask < 1<<len(t.dims); mask++ {
		pi, stride, sign := 0, 1, 1.0
		for k, n := range t.dims {
			if mask&(1<<k) != 0 {
				pi += hi[k] * stride
			} else {
				pi += lo[k] * stride
				sign = -sign
			}
			stride *= n + 1
		}
		total += sign * t.sums[pi]
	}
	return total
}

// blockSum2 is BlockSum's d = 2 case over a table with row stride w: the
// block's four corners added as a - b - c + d, the order Prefix answers
// have always used. Prefix calls it directly, which keeps its per-span
// sums free of slice arguments.
func blockSum2(sums []float64, w, x0, y0, x1, y1 int) float64 {
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	return sums[y1*w+x1] - sums[y0*w+x1] - sums[y1*w+x0] + sums[y0*w+x0]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Span is a run of cell indices [I0, I1) that a query covers with
// uniform weight W on one axis.
type Span struct {
	I0, I1 int
	W      float64
}

// AxisSpans decomposes the continuous interval [lo, hi] (in cell units,
// already clamped to [0, m]) into at most three weighted index runs,
// appended to out[:0]: a left partial cell, a full-weight middle run,
// and a right partial cell. A three-entry out never allocates.
func AxisSpans(lo, hi float64, m int, out []Span) []Span {
	out = out[:0]
	if hi <= lo {
		return out
	}
	loCell := int(math.Floor(lo))
	hiCell := int(math.Floor(hi))
	if loCell >= m {
		loCell = m - 1
	}
	if loCell == hiCell {
		// Entire interval inside one cell.
		return append(out, Span{I0: loCell, I1: loCell + 1, W: hi - lo})
	}
	// Left partial cell, unless lo sits exactly on a cell edge.
	fullStart := loCell
	if float64(loCell) != lo {
		out = append(out, Span{I0: loCell, I1: loCell + 1, W: float64(loCell+1) - lo})
		fullStart = loCell + 1
	}
	// Full-weight middle run.
	if fullStart < hiCell {
		out = append(out, Span{I0: fullStart, I1: hiCell, W: 1})
	}
	// Right partial cell, unless hi sits exactly on a cell edge (hiCell == m
	// can only happen when hi == m, which is an edge).
	if float64(hiCell) != hi && hiCell < m {
		out = append(out, Span{I0: hiCell, I1: hiCell + 1, W: hi - float64(hiCell)})
	}
	return out
}
