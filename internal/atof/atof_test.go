package atof

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// fastPath reports whether ParseFloat converts b without strconv.
func fastPath(b []byte) bool {
	_, n, ok := ParsePrefix(b)
	return ok && n == len(b)
}

// checkSame fails t unless ParseFloat(s) and strconv.ParseFloat(s, 64)
// return the same bits and the same error text.
func checkSame(t testing.TB, s string) {
	t.Helper()
	want, werr := strconv.ParseFloat(s, 64)
	got, gerr := ParseFloat([]byte(s))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ParseFloat(%q) = %v (%#016x), strconv gives %v (%#016x)",
			s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("ParseFloat(%q) error %v, strconv gives %v", s, gerr, werr)
	}
}

// TestParseFloat checks hand-picked inputs against strconv, and which
// of them the fast path converts itself.
func TestParseFloat(t *testing.T) {
	cases := []struct {
		in   string
		fast bool // ParsePrefix converts it without strconv
	}{
		{"0", true},
		{"-0", true},
		{"+0", true},
		{"0.000", true},
		{"-0e999999", true},
		{"1", true},
		{"1.", true},
		{".5", true},
		{"-.5", true},
		{"+1.5", true},
		{"000123.25", true},
		{"0.0000012345", true},
		{"1234567890123456789", true},       // 19 significant digits
		{"12345678901234567890", false},     // 20
		{"0.001234567890123456789", true},   // 19 after leading zeros
		{"0.0012345678901234567891", false}, // 20 after leading zeros
		{"1e10", true},
		{"1E10", true},
		{"1e+10", true},
		{"1.5e-7", true},
		{"2.5E-3", true},
		{"12.3456789012345", true},
		{"-122.41941550000001", true},
		{"37.774929", true},
		{"1.7976931348623157e308", true},
		{"2.2250738585072014e-308", true}, // smallest normal
		{"9007199254740992", true},
		{"9007199254740993", false},        // halfway between 2^53 and 2^53+2
		{"2.2250738585072011e-308", false}, // subnormal
		{"4.9e-324", false},                // smallest subnormal
		{"1e309", false},                   // overflows: +Inf, ErrRange
		{"-1e309", false},
		{"1.8e308", false},
		{"1e-400", false},
		{"1e400", false},
		{"Inf", false},
		{"+Inf", false},
		{"-inf", false},
		{"infinity", false},
		{"NaN", false},
		{"nan", false},
		{"0x1p-2", false},
		{"0x1.8p1", false},
		{"1_0", false},
		{"0x_1p0", false},
		{"", false},
		{"+", false},
		{"-", false},
		{".", false},
		{"1e", false},
		{"1e+", false},
		{"1e-", false},
		{"e5", false},
		{"1.2.3", false},
		{"1,5", false},
		{" 1", false},
		{"1 ", false},
		{"12a", false},
		{"--1", false},
		{"1e1000000000000000000000", false},
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			checkSame(t, tc.in)
			if ok := fastPath([]byte(tc.in)); ok != tc.fast {
				t.Errorf("fast path ok = %v, want %v", ok, tc.fast)
			}
		})
	}
}

// pow10Big returns floor(10^q · 2^(127−⌊log₂ 10^q⌋)) as its high and
// low words, and ⌊log₂ 10^q⌋.
func pow10Big(q int) (hi, lo uint64, log2 int) {
	ten := big.NewInt(10)
	var v *big.Int
	if q >= 0 {
		v = new(big.Int).Exp(ten, big.NewInt(int64(q)), nil)
		log2 = v.BitLen() - 1
		if log2 > 127 {
			v.Rsh(v, uint(log2-127))
		} else {
			v.Lsh(v, uint(127-log2))
		}
	} else {
		// 10^-q is not a power of two, so 10^q lies strictly between
		// 2^-bitlen and 2^(1-bitlen).
		p := new(big.Int).Exp(ten, big.NewInt(int64(-q)), nil)
		log2 = -p.BitLen()
		v = new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
		v.Quo(v, p)
	}
	lo = new(big.Int).And(v, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
	hi = v.Rsh(v, 64).Uint64()
	return hi, lo, log2
}

// TestPow10Table recomputes every pow10 entry with math/big, and the
// ⌊q·log₂ 10⌋ approximation eiselLemire takes from q.
func TestPow10Table(t *testing.T) {
	for q := minExp10; q <= maxExp10; q++ {
		hi, lo, log2 := pow10Big(q)
		if got := pow10[q-minExp10]; got != [2]uint64{hi, lo} {
			t.Errorf("1e%d: entry {%#016x, %#016x}, want {0x%016X, 0x%016X}", q, got[0], got[1], hi, lo)
		}
		if got := 217706 * q >> 16; got != log2 {
			t.Errorf("1e%d: 217706·q>>16 = %d, want ⌊log₂ 10^q⌋ = %d", q, got, log2)
		}
	}
}

// TestRoundTrip parses float64 values formatted by strconv with 'g',
// 'f' and 'e': random bit patterns over the whole range, and values of
// the magnitudes and precisions coordinates have.
func TestRoundTrip(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	fast := 0
	for i := 0; i < n; i++ {
		var v float64
		prec := -1
		switch i % 4 {
		case 0, 1:
			v = math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		case 2:
			v = (rng.Float64() - 0.5) * 360
		case 3:
			v = rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20))
			prec = rng.Intn(20) - 1
		}
		for _, verb := range []byte{'g', 'f', 'e'} {
			buf = strconv.AppendFloat(buf[:0], v, verb, prec, 64)
			got, err := ParseFloat(buf)
			want, _ := strconv.ParseFloat(string(buf), 64)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ParseFloat(%q) = %v, %v; strconv gives %v", buf, got, err, want)
			}
			if prec < 0 && got != v {
				t.Fatalf("ParseFloat(%q) = %v, want %v", buf, got, v)
			}
			if fastPath(buf) {
				fast++
			}
		}
	}
	// Shortest forms of normal values almost always take the fast
	// path; a decline on most of them would leave only strconv tested.
	if fast < n {
		t.Errorf("fast path converted %d of %d strings", fast, 3*n)
	}
}

// TestParsePrefix checks where ParsePrefix stops inside longer input,
// and that what it converts is what strconv gives for those bytes.
func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in string
		n  int // bytes consumed; -1 where ok is false
	}{
		{"1,2", 1},
		{"-122.41941550000001,37.774929012345678\n", 19},
		{"37.774929012345678\r\n", 18},
		{"37.774929012345678", 18},
		{"1.25e-3,0", 7},
		{"1e5x", 3},
		{"1.2.3", 3},
		{"5.,1", 2},
		{".5,1", 2},
		{"+1,1", 2},
		{"0x1p-2", 1},
		{"1_000", 1},
		{"0.00000000123456789012,", 22}, // leading zeros, then a word
		{"1.2345678/9", 9},              // '/' sits just below '0'
		{"1.2345:7890", 6},              // ':' just above '9'
		{"1.23\xb04567890", 4},          // a byte past ASCII
		{"12345678901.23456789,", 20},   // 11 digits, then a word: 19
		{"123456789012.3456789,", 20},   // 12 digits: the byte loop
		{"1.234567890123456789,", 20},   // 19 significant digits
		{"1.2345678901234567890,", -1},  // 20
		{"12345678901234567890,", -1},   // 20
		{"1e,2", -1},
		{"1e+", -1},
		{"Inf,1", -1},
		{"NaN", -1},
		{",1", -1},
		{"-,1", -1},
		{".,1", -1},
		{"", -1},
		{"9007199254740993,1", -1}, // halfway: strconv decides
		{"1e400,1", -1},
	}
	for _, tc := range cases {
		f, n, ok := ParsePrefix([]byte(tc.in))
		if !ok {
			if tc.n >= 0 {
				t.Errorf("ParsePrefix(%q) declined, want %d bytes", tc.in, tc.n)
			}
			continue
		}
		if n != tc.n {
			t.Errorf("ParsePrefix(%q) consumed %d bytes, want %d", tc.in, n, tc.n)
			continue
		}
		want, err := strconv.ParseFloat(tc.in[:n], 64)
		if err != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("ParsePrefix(%q) = %v, strconv.ParseFloat(%q) = %v, %v", tc.in, f, tc.in[:n], want, err)
		}
	}
}

// TestParsePrefixDigitRuns runs ParsePrefix over random mantissas of
// every integer and fraction length up to 24 digits, some with leading
// zeros, each followed by a byte that ends the number, so the word
// reads start and stop at every offset. The value must be strconv's,
// the consumed length the number's, and ParseFloat must take the bare
// number itself exactly when ParsePrefix converts it.
func TestParsePrefixDigitRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	digits := func(n int, zeros bool) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
			if zeros && i < n/2 {
				b[i] = '0'
			}
		}
		return string(b)
	}
	ends := []string{"", ",", "\n", "/", ":", "\x80", "e", "e+7", ".", "0000000,"}
	for ni := 0; ni <= 24; ni++ {
		for nf := -1; nf <= 24; nf++ { // -1: no '.'
			for _, zeros := range []bool{false, true} {
				num := digits(ni, zeros)
				if nf >= 0 {
					num += "." + digits(nf, zeros && ni == 0)
				}
				for _, end := range ends {
					in := num + end
					f, n, ok := ParsePrefix([]byte(in))
					want, err := strconv.ParseFloat(in[:n], 64)
					if ok && (err != nil || math.Float64bits(f) != math.Float64bits(want)) {
						t.Fatalf("ParsePrefix(%q) = %v after %d bytes, strconv gives %v, %v", in, f, n, want, err)
					}
					if fastPath([]byte(in)) != (ok && n == len(in)) {
						t.Fatalf("ParsePrefix(%q) = %d bytes, %v; ParseFloat's fast path disagrees", in, n, ok)
					}
					if end == "," || end == "\n" || end == "/" {
						if wantOK := fastPath([]byte(num)); ok != wantOK || ok && n != len(num) {
							t.Fatalf("ParsePrefix(%q) = %d bytes, %v; want %d bytes, %v", in, n, ok, len(num), wantOK)
						}
					}
				}
			}
		}
	}
}

// FuzzParseFloat checks ParseFloat against strconv.ParseFloat on
// arbitrary bytes: the same bits, the same error-ness, the same text.
// It also checks ParsePrefix on s followed by a comma and a tail, as a
// CSV field is: it converts s exactly when ParseFloat converts s
// itself, stopping at the comma, and whatever prefix it converts has
// strconv's value.
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1.", ".5", "1e10", "-1.5E-7", "9007199254740993",
		"2.2250738585072011e-308", "4.9e-324", "1e309", "1e-400",
		"1234567890123456789", "12345678901234567890", "Inf", "NaN",
		"0x1p-2", "1_0", "", "+", ".", "1e", "-122.41941550000001",
		"0.00000000123456789012", "1.2345678/9", "12345678901.23456789",
		fmt.Sprint(math.MaxFloat64), fmt.Sprint(math.SmallestNonzeroFloat64),
	} {
		f.Add(s, "2\n")
	}
	f.Add("37.774929", "12345678")
	f.Fuzz(func(t *testing.T, s, tail string) {
		checkSame(t, s)
		in := []byte(s + "," + tail)
		v, n, ok := ParsePrefix(in)
		if fastPath([]byte(s)) != (ok && n == len(s)) {
			t.Fatalf("ParsePrefix(%q) = %d bytes, %v; ParseFloat(%q) fast path %v", in, n, ok, s, fastPath([]byte(s)))
		}
		if !ok {
			return
		}
		if n > len(s) {
			t.Fatalf("ParsePrefix(%q) consumed %d bytes, past the comma", in, n)
		}
		want, err := strconv.ParseFloat(string(in[:n]), 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("ParsePrefix(%q) = %v after %d bytes, strconv gives %v, %v", in, v, n, want, err)
		}
	})
}
