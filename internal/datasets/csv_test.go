package datasets

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// errContractBlock is the CSV reader's block size. The boundary cases
// below place a bad line around the first block boundary, the one
// offset every block layout shares.
const errContractBlock = 1 << 20

// padCSV returns exactly n bytes (n >= 4) of valid "x,y" lines: "1,2"
// lines, the last one widened with leading zeros in y to fill n.
func padCSV(n int) string {
	var sb strings.Builder
	for n-4 >= 4 {
		sb.WriteString("1,2\n")
		n -= 4
	}
	sb.WriteString("1," + strings.Repeat("0", n-4) + "2\n")
	return sb.String()
}

// failingReader returns data, then err instead of io.EOF.
func failingReader(data string, err error) io.Reader {
	return io.MultiReader(strings.NewReader(data), errReader{err})
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// stuckReader never returns data or an error.
type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// TestReadCSVErrorContract pins the exact error text, line number
// included, of every way a CSV read can fail.
func TestReadCSVErrorContract(t *testing.T) {
	lineAfter := func(prefix string) int { return strings.Count(prefix, "\n") + 1 }
	const bad = "abc,2\n"
	before := padCSV(errContractBlock - len(bad))           // bad line ends on the boundary
	straddle := padCSV(errContractBlock - 3)                // bad line crosses the boundary
	after := padCSV(errContractBlock)                       // bad line starts on the boundary
	longX := strings.Repeat("0", errContractBlock+10) + "1" // one line longer than a block
	longBad := "1" + strings.Repeat("z", errContractBlock+10)
	boom := errors.New("boom")

	cases := []struct {
		name string
		r    io.Reader
		want string // "" means no error
		n    int    // points on success
	}{
		{"bad x", strings.NewReader("1,2\nabc,2\n"), `datasets: read csv line 2: bad x "abc"`, 0},
		{"bad y", strings.NewReader("1,2\n3,4\n1,xyz\n"), `datasets: read csv line 3: bad y "xyz"`, 0},
		{"empty y", strings.NewReader("1,\n"), `datasets: read csv line 1: bad y ""`, 0},
		{"one field", strings.NewReader("1,2\n1\n"), "datasets: read csv line 2: want 2 fields", 0},
		{"three fields", strings.NewReader("1,2,3\n"), "datasets: read csv line 1: want 2 fields", 0},
		{"quoted ok", strings.NewReader("\"1\",\"2\"\n3,4\n"), "", 2},
		{"quoted open", strings.NewReader("1,2\n\"1,2\n"), "datasets: read csv line 2: parse error on line 1, column 5: extraneous or missing \" in quoted-field", 0},
		{"quoted bare", strings.NewReader("1,2\n1,2\"3\n"), "datasets: read csv line 2: parse error on line 1, column 4: bare \" in non-quoted-field", 0},
		{"quoted three fields", strings.NewReader("\"1\",2,3\n"), "datasets: read csv line 1: record on line 1: wrong number of fields", 0},
		{"quoted bad x", strings.NewReader("\"a\",2\n"), `datasets: read csv line 1: bad x "a"`, 0},
		{"bad before boundary", strings.NewReader(before + bad + "1,2\n"), fmt.Sprintf(`datasets: read csv line %d: bad x "abc"`, lineAfter(before)), 0},
		{"bad on boundary", strings.NewReader(straddle + bad + "1,2\n"), fmt.Sprintf(`datasets: read csv line %d: bad x "abc"`, lineAfter(straddle)), 0},
		{"bad after boundary", strings.NewReader(after + bad + "1,2\n"), fmt.Sprintf(`datasets: read csv line %d: bad x "abc"`, lineAfter(after)), 0},
		{"bad second line after boundary", strings.NewReader(after + "1,2\n" + bad), fmt.Sprintf(`datasets: read csv line %d: bad x "abc"`, lineAfter(after)+1), 0},
		{"bad late in second block", strings.NewReader(after + padCSV(errContractBlock/2) + bad), fmt.Sprintf(`datasets: read csv line %d: bad x "abc"`, lineAfter(after+padCSV(errContractBlock/2))), 0},
		{"boundary ok", strings.NewReader(before + "1,2\n" + after), "", strings.Count(before+after, "\n") + 1},
		{"crlf and blank lines", strings.NewReader("1,2\r\n\r\n\n3,4\r\n5,x\r\n"), `datasets: read csv line 5: bad y "x"`, 0},
		{"crlf ok", strings.NewReader("1,2\r\n\r\n3,4\r\n\n"), "", 2},
		{"no trailing newline", strings.NewReader("1,2\n3,4\nabc,5"), `datasets: read csv line 3: bad x "abc"`, 0},
		{"no trailing newline ok", strings.NewReader("1,2\n3,4"), "", 2},
		{"long line ok", strings.NewReader("1,2\n" + longX + ",2\n3,4"), "", 3},
		{"bad after long line", strings.NewReader(longX + ",2\nabc,1\n"), `datasets: read csv line 2: bad x "abc"`, 0},
		{"long bad line", strings.NewReader("1,2\n" + longBad + ",2\n"), fmt.Sprintf("datasets: read csv line 2: bad x %q", longBad), 0},
		{"empty file", strings.NewReader(""), "", 0},
		{"only blank lines", strings.NewReader("\n\r\n\n"), "", 0},
		{"read error mid line", failingReader("1,2\n3,4\n5,", boom), "datasets: read csv line 3: boom", 0},
		{"read error after newline", failingReader("1,2\n", boom), "datasets: read csv line 2: boom", 0},
		{"read error at start", failingReader("", boom), "datasets: read csv line 1: boom", 0},
		{"bad line before read error", failingReader("1,2\nx,1\n3,4\n", boom), `datasets: read csv line 2: bad x "x"`, 0},
		{"stuck reader", stuckReader{}, "datasets: read csv line 1: multiple Read calls return no data or error", 0},
		{"stuck after a line", io.MultiReader(strings.NewReader("1,2\n3,"), stuckReader{}), "datasets: read csv line 2: multiple Read calls return no data or error", 0},
		{"read error after boundary", failingReader(after+"1,2\n", boom), fmt.Sprintf("datasets: read csv line %d: boom", lineAfter(after)+1), 0},
		{"fallback bad x", strings.NewReader("1e,2\n"), `datasets: read csv line 1: bad x "1e"`, 0},
		{"fallback bad y", strings.NewReader("1,0x1p\n"), `datasets: read csv line 1: bad y "0x1p"`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts, err := ReadCSV(tc.r)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %.200v", err)
				}
				if len(pts) != tc.n {
					t.Fatalf("%d points, want %d", len(pts), tc.n)
				}
				return
			}
			if err == nil {
				t.Fatalf("no error, want %q", tc.want)
			}
			if got := err.Error(); got != tc.want {
				if len(got) > 200 || len(tc.want) > 200 {
					t.Fatalf("error text differs (len %d, want len %d)", len(got), len(tc.want))
				}
				t.Fatalf("error %q, want %q", got, tc.want)
			}
			if tc.name == "read error mid line" && !errors.Is(err, boom) {
				t.Errorf("read error does not wrap the reader's error")
			}
		})
	}
}

// TestReadCSVFallbackForms reads number forms other than the plain
// decimals WriteCSV writes: exponents, hex, underscores, Inf and NaN,
// mantissas past 19 digits, a halfway case and a subnormal. Most of
// them atof.ParseFloat hands to strconv; all keep strconv's values.
func TestReadCSVFallbackForms(t *testing.T) {
	cases := []struct {
		in   string
		want []geom.Point
	}{
		{"1e3,0x1p-2\n", []geom.Point{{X: 1000, Y: 0.25}}},
		{"1_000.5,NaN\n", []geom.Point{{X: 1000.5, Y: math.NaN()}}},
		{"+Inf,-Inf\n", []geom.Point{{X: math.Inf(1), Y: math.Inf(-1)}}},
		{"1234567890123456789012345,-0.1234567890123456789012345\n",
			[]geom.Point{{X: 1234567890123456789012345, Y: -0.1234567890123456789012345}}},
		{"9007199254740993,4.9e-324\n", []geom.Point{{X: 9007199254740992, Y: math.SmallestNonzeroFloat64}}},
		{"\"0x1p-2\",\"1e3\"\n", []geom.Point{{X: 0.25, Y: 1000}}},
	}
	for _, tc := range cases {
		pts, err := ReadCSV(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("ReadCSV(%q): %v", tc.in, err)
		}
		if len(pts) != len(tc.want) {
			t.Fatalf("ReadCSV(%q): %d points, want %d", tc.in, len(pts), len(tc.want))
		}
		for i, p := range tc.want {
			if math.Float64bits(pts[i].X) != math.Float64bits(p.X) || math.Float64bits(pts[i].Y) != math.Float64bits(p.Y) {
				t.Errorf("ReadCSV(%q) point %d = %v, want %v", tc.in, i, pts[i], p)
			}
		}
	}
}

// TestParsePointLineAllocs guards the hot path: a plain "x,y" line at
// full float64 precision, as WriteCSV writes it, parses without
// allocating.
func TestParsePointLineAllocs(t *testing.T) {
	line := []byte("-122.41941550000001,37.774929012345678\n")
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := parsePointLine(line, 1); !ok || err != nil {
			t.Fatalf("parsePointLine(%q): ok %v, %v", line, ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("parsePointLine allocates %v times per line, want 0", allocs)
	}
}

// TestScanPointAllocs guards the forward scan as
// TestParsePointLineAllocs guards the split path: a WriteCSV line is
// taken whole, without allocating.
func TestScanPointAllocs(t *testing.T) {
	line := []byte("-122.41941550000001,37.774929012345678\n1,2\n")
	allocs := testing.AllocsPerRun(100, func() {
		if _, n, ok := scanPoint(line); !ok || n != 39 {
			t.Fatalf("scanPoint(%q) = %d bytes, %v; want the 39-byte first line", line, n, ok)
		}
	})
	if allocs != 0 {
		t.Errorf("scanPoint allocates %v times per line, want 0", allocs)
	}
}

// BenchmarkReadCSV reads 100k random points in the form WriteCSV
// writes them, the CSV form dpgrid ingests.
func BenchmarkReadCSV(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 100_000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil || len(got) != len(pts) {
			b.Fatalf("ReadCSV: %d points, %v", len(got), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
}

// splitLines is parseLines without the forward scan: every line is cut
// at its newline and parsed by parsePointLine.
func splitLines(data []byte, pts []geom.Point) (_ []geom.Point, lines int, bad []byte) {
	for len(data) > 0 {
		n := bytes.IndexByte(data, '\n') + 1
		if n == 0 {
			n = len(data)
		}
		line := data[:n]
		data = data[n:]
		lines++
		p, ok, err := parsePointLine(line, lines)
		if err != nil {
			return pts, lines, line
		}
		if ok {
			pts = append(pts, p)
		}
	}
	return pts, lines, nil
}

// FuzzParseLines parses arbitrary blocks with parseLines, whose plain
// lines take the forward scan, and with the split-only splitLines: the
// points (bit for bit), the line counts and the bad line must agree,
// and ReadCSV's error text must be the one splitLines' bad line gives.
func FuzzParseLines(f *testing.F) {
	for _, s := range []string{
		"1,2\n3,4\n",
		"-122.41941550000001,37.774929012345678\n",
		"1,2\r\n\r\n3,4\r\n",
		"1,2\r",
		"1,2\r\r\n",
		"\n\n1,2\n\n",
		"\"1\",\"2\"\n3,4\n",
		"1,2\"3\n",
		"+1,-2\n",
		".5,5.\n",
		"1e,2\n",
		"1,2e\n",
		"1e5,2E-3\n",
		"12345678901234567890,1\n",
		"1,0.12345678901234567890\n",
		"1,2,3\n",
		"1\n",
		",\n",
		"1,\n",
		"1,2\n3,4",
		"Inf,NaN\n",
		"0x1p-2,1_0\n",
		" 1,2\n",
		"1 ,2\n",
		"1,2 \n",
		"1.2.3,4\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotLines, gotBad := parseLines(data, nil)
		want, wantLines, wantBad := splitLines(data, nil)
		if gotLines != wantLines || !bytes.Equal(gotBad, wantBad) || (gotBad == nil) != (wantBad == nil) {
			t.Fatalf("parseLines(%q): %d lines, bad line %q; splitLines: %d lines, bad line %q", data, gotLines, gotBad, wantLines, wantBad)
		}
		if !samePoints(got, want) {
			t.Fatalf("parseLines(%q) = %v, splitLines gives %v", data, got, want)
		}
		pts, err := ReadCSV(bytes.NewReader(data))
		if wantBad != nil {
			_, _, wantErr := parsePointLine(wantBad, wantLines)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ReadCSV(%q) error %v, want %q", data, err, wantErr)
			}
		} else if err != nil || !samePoints(pts, want) {
			t.Fatalf("ReadCSV(%q) = %v, %v; want %v", data, pts, err, want)
		}
	})
}

// samePoints reports whether a and b hold the same coordinates bit for
// bit, so NaNs compare equal and -0 differs from 0.
func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// BenchmarkParseLines parses one block of road points, written by
// WriteCSV, on one goroutine: the per-line cost of the CSV parse
// without the read and hand-off pipeline around it. The split
// sub-benchmark is the split-only loop, for comparison.
func BenchmarkParseLines(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Road(0.02, 1).Points); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	data = data[:bytes.LastIndexByte(data[:min(len(data), csvBlockSize)], '\n')+1]
	lines := bytes.Count(data, []byte{'\n'})
	for _, bc := range []struct {
		name  string
		parse func([]byte, []geom.Point) ([]geom.Point, int, []byte)
	}{{"scan", parseLines}, {"split", splitLines}} {
		b.Run(bc.name, func(b *testing.B) {
			pts := make([]geom.Point, 0, lines)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var n int
				var bad []byte
				if pts, n, bad = bc.parse(data, pts[:0]); n != lines || bad != nil {
					b.Fatalf("%d lines, bad line %q; want %d lines", n, bad, lines)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
		})
	}
}
