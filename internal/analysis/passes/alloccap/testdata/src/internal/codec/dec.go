// Package codec is the alloccap fixture: a stub of the real bounded
// cursor plus decode functions exercising every bounding idiom.
package codec

// Dec is the truncation-safe cursor stand-in.
type Dec struct {
	buf []byte
	off int
}

// Remaining reports the unread byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Int32 reads an unvalidated wire integer.
func (d *Dec) Int32() int {
	d.off += 4
	return d.off
}

// Len reads a section length and validates it against Remaining.
func (d *Dec) Len(elemSize int) int {
	n := d.Int32()
	if n > d.Remaining()/elemSize {
		return 0
	}
	return n
}

// F64s validates want against the actual section and returns it.
func (d *Dec) F64s(want int) []float64 {
	n := d.Len(8)
	if n != want {
		return nil
	}
	return make([]float64, n)
}

func decodeBlind(d *Dec) []byte {
	n := d.Int32()
	return make([]byte, n) // want `DPL005: make length n is wire-derived and unbounded`
}

func decodeBlindCap(d *Dec) []byte {
	n := d.Int32()
	return make([]byte, 0, n) // want `DPL005: make length n is wire-derived and unbounded`
}

func decodeBounded(d *Dec) []float64 {
	n := d.Len(8)
	return make([]float64, n)
}

func decodeGuarded(d *Dec) []int {
	n := d.Int32()
	if n > d.Remaining()/4 {
		return nil
	}
	return make([]int, n)
}

func decodeCrossChecked(d *Dec, want int) []int {
	vals := d.F64s(want)
	if vals == nil {
		return nil
	}
	return make([]int, want)
}

func decodeFromLen(d *Dec, xs []int) []int {
	_ = d.Int32()
	return make([]int, len(xs))
}

// encodeSide never touches a Dec: sizes come from trusted in-memory
// state, so nothing here is flagged.
func encodeSide(vals []float64, m int) []float64 {
	out := make([]float64, m*m)
	copy(out, vals)
	return out
}

func suppressedBlind(d *Dec) []byte {
	n := d.Int32()
	//lint:ignore DPL005 fixture: n is bounded by the caller's contract
	return make([]byte, n)
}
