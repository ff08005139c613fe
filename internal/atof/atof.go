// Package atof parses decimal floating-point text from byte slices
// with the results of strconv.ParseFloat, without its per-call string
// conversion and at a fraction of its cost for the plain decimal
// numbers that CSV files and JSON bodies hold.
//
// The plain form is read into a 64-bit decimal mantissa and a power of
// ten. When both are exact float64s one multiply or divide converts
// them; otherwise the Eisel–Lemire algorithm finds the nearest
// float64 (D. Lemire, "Number Parsing at a Gigabyte per Second",
// Software: Practice and Experience, 2021; N. Tao's note "The
// Eisel-Lemire ParseNumberF64 Algorithm", 2020). The algorithm returns
// a value only when it can prove that value is correctly rounded, so
// it agrees with strconv, which also rounds correctly. Everything it
// cannot prove, and every other form, is handed to strconv itself.
package atof

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// The exponent range of the pow10 table. Below minExp10 a mantissa of
// at most 19 digits gives a subnormal or zero, above maxExp10 an
// overflow; Eisel–Lemire declines both anyway.
const (
	minExp10 = -342
	maxExp10 = 308
)

// ParseFloat returns exactly what strconv.ParseFloat(string(b), 64)
// returns: the same bits and the same error.
//
// A plain decimal of at most 19 significant digits,
// [+-]digits[.digits][(e|E)[+-]digits], whose rounding is exact or
// proved by Eisel–Lemire, is converted without allocating. Everything
// else (hex, Inf and NaN, underscores, longer mantissas, exponents
// outside the table, halfway, subnormal and overflowing values, and
// every syntax error) goes to strconv.ParseFloat.
func ParseFloat(b []byte) (float64, error) {
	if f, n, ok := ParsePrefix(b); ok && n == len(b) {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// ParsePrefix converts the plain decimal at the start of b and returns
// it with the number of bytes it spans, n, for a caller that parses a
// number inside a longer record. ok is false when that decimal is not
// one ParseFloat converts itself: no mantissa digits, an 'e' with no
// exponent digits, more than 19 significant digits, or a rounding
// Eisel–Lemire cannot prove. When ok, the value is exactly
// strconv.ParseFloat(string(b[:n]), 64), and ParseFloat(b) converts b
// itself exactly when ok and n == len(b). ParsePrefix never consults
// strconv, and neither allocates nor errs.
func ParsePrefix(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	// The integer and the fraction digits have a loop each: one loop
	// that also looks for the '.' parsed coordinates 15–25% slower.
	var man uint64
	nd := 0 // significant digits: those from the first nonzero one on
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		man = man*10 + uint64(d)
		if man != 0 {
			nd++
		}
	}
	seen := i - start // mantissa digits, leading zeros included
	exp := 0
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		// Leading zeros one at a time, up to the first significant digit.
		for ; nd == 0 && i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if d != 0 {
				man, nd = uint64(d), 1
			}
		}
		// A mantissa of 1 to 11 significant digits has room for eight
		// more: take them a word at a time while all eight are digits.
		for nd != 0 && nd <= 11 && len(b)-i >= 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(w) {
				break
			}
			man = man*1e8 + eightDigitsValue(w)
			nd += 8
			i += 8
		}
		// The rest one at a time. Every digit left is significant: the
		// zeros loop stopped at a nonzero digit or at the digits' end.
		tail := i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			man = man*10 + uint64(d)
		}
		nd += i - tail
		seen += i - start
		exp = start - i
	}
	if seen == 0 || nd > 19 {
		return 0, 0, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start := i
		e := 0
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if e < 10000 { // past the table either way; stop before e overflows
				e = e*10 + int(d)
			}
		}
		if i == start {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	// Clinger's fast path, which strconv also takes first: man and
	// 10^|exp| are exact float64s, so one IEEE multiply or divide
	// rounds correctly. It covers short exact decimals such as 0.5,
	// which the truncated table leaves Eisel–Lemire unable to decide.
	if man>>53 == 0 && -22 <= exp && exp <= 22 {
		f = float64(man)
		if exp < 0 {
			f /= exactPow10[-exp]
		} else {
			f *= exactPow10[exp]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, ok = eiselLemire(man, exp, neg)
	return f, i, ok
}

// eightDigits reports whether all eight bytes of the little-endian
// word w are ASCII digits: each byte's high nibble is 3, and adding 6
// to it does not carry into that nibble.
func eightDigits(w uint64) bool {
	return (w&0xF0F0F0F0F0F0F0F0)|((w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// eightDigitsValue returns the number the eight ASCII digits in w
// spell, the first digit in the lowest byte, in three multiplies: the
// digits are combined pairwise into 2-digit, then 4-digit, then the
// 8-digit value, each step halving the lanes.
func eightDigitsValue(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8 // byte 2k: the pair's value
	return ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire returns the float64 nearest to ±man·10^exp10, rounding
// halfway cases to even, and ok = true, when it can prove that result
// from the 128-bit approximation of 10^exp10 in pow10. It declines
// (ok = false) when the approximation leaves the rounding undecided,
// when the exponent is outside the table, and when the result is
// subnormal or overflows. The comments name the steps of Tao's note.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	pow := &pow10[exp10-minExp10]

	// Normalization: man gets its top bit set. exp2 is the biased
	// binary exponent of the result if the product's top bit lands on
	// bit 127; 217706·q>>16 is ⌊q·log₂ 10⌋ over the table's range.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// Multiplication: the top 128 bits of man times the high word.
	hi, lo := bits.Mul64(man, pow[0])

	// Wider approximation. The dropped low word adds less than man to
	// lo; only when that could carry into the 9 bits below the 54 kept
	// ones does it matter, and then the low word's product is added.
	if hi&0x1FF == 0x1FF && lo+man < man {
		hi2, lo2 := bits.Mul64(man, pow[1])
		mergedHi, mergedLo := hi, lo+hi2
		if mergedLo < lo {
			mergedHi++
		}
		// The table's own truncation could still carry: undecidable.
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Shifting to 54 bits: one more than the float's 53, for rounding.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Half-way ambiguity: a set 54th bit with nothing set below it is
	// either exactly halfway, which rounds down to the even 53-bit
	// neighbour, or just above halfway, which rounds up. The truncated
	// product cannot tell the two apart.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// From 54 to 53 bits, rounding up on the 54th; a carry out of the
	// top bit bumps the exponent.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 (unsigned) is 0 or wrapped for a subnormal, ≥ 0x7FF for an
	// overflow: both decline.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	fbits := exp2<<52 | mant&(1<<52-1)
	if neg {
		fbits |= 1 << 63
	}
	return math.Float64frombits(fbits), true
}
