package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/geom"
)

func writeTestCSV(t *testing.T, n int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	path := filepath.Join(t.TempDir(), "pts.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := datasets.WriteCSV(f, pts); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSingleQuery(t *testing.T) {
	csv := writeTestCSV(t, 20000)
	for _, method := range []string{"ug", "ag", "kdhybrid", "kdstandard", "privlet"} {
		var sb strings.Builder
		err := run([]string{
			"-in", csv, "-domain", "0,0,100,100", "-method", method,
			"-eps", "1", "-seed", "7", "-query", "0,0,50,50",
		}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		fields := strings.Fields(sb.String())
		if len(fields) != 2 {
			t.Fatalf("%s: output %q", method, sb.String())
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("%s: bad answer %q", method, fields[1])
		}
		// Uniform data: quarter of the domain ~ 5000 with noise slack.
		if v < 3500 || v > 6500 {
			t.Errorf("%s: answer %g, want ~5000", method, v)
		}
	}
}

func TestRunQueriesFile(t *testing.T) {
	csv := writeTestCSV(t, 5000)
	qfile := filepath.Join(t.TempDir(), "q.txt")
	content := "# comment line\n0,0,50,50\n\n50,50,100,100\n"
	if err := os.WriteFile(qfile, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{
		"-in", csv, "-domain", "0,0,100,100", "-method", "ug",
		"-eps", "1", "-seed", "7", "-queries", qfile,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("answers = %d lines, want 2:\n%s", len(lines), sb.String())
	}
}

func TestRunValidation(t *testing.T) {
	csv := writeTestCSV(t, 10)
	cases := [][]string{
		{"-domain", "0,0,1,1", "-query", "0,0,1,1"},                             // no -in
		{"-in", csv, "-query", "0,0,1,1"},                                       // no -domain
		{"-in", csv, "-domain", "0,0,1,1"},                                      // no query
		{"-in", csv, "-domain", "0,0,1", "-query", "0,0,1,1"},                   // bad domain arity
		{"-in", csv, "-domain", "0,0,abc,1", "-query", "0,0,1,1"},               // bad number
		{"-in", csv, "-domain", "0,0,1,1", "-query", "0,0,1,1", "-method", "x"}, // bad method
		{"-in", "/no/such/file.csv", "-domain", "0,0,1,1", "-query", "0,0,1,1"},
		{"-in", csv, "-domain", "0,0,1,1", "-query", "0,0,zz,1"}, // bad query
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestRunSaveAndLoad(t *testing.T) {
	csv := writeTestCSV(t, 10000)
	synFile := filepath.Join(t.TempDir(), "synopsis.dpgrid")

	// Build once, save, and answer a query in the same invocation.
	var sb strings.Builder
	err := run([]string{
		"-in", csv, "-domain", "0,0,100,100", "-method", "ag",
		"-eps", "1", "-seed", "7", "-save", synFile, "-query", "0,0,50,50",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	first := sb.String()

	// Load the saved synopsis (no raw data) and ask the same query: the
	// answer must be identical.
	sb.Reset()
	err = run([]string{"-load", synFile, "-query", "0,0,50,50"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != first {
		t.Errorf("loaded synopsis answered differently:\n%q\nvs\n%q", sb.String(), first)
	}
}

func TestRunSaveOnly(t *testing.T) {
	csv := writeTestCSV(t, 1000)
	synFile := filepath.Join(t.TempDir(), "syn.dpgrid")
	var sb strings.Builder
	err := run([]string{
		"-in", csv, "-domain", "0,0,100,100", "-method", "ug",
		"-eps", "1", "-seed", "3", "-save", synFile,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(synFile); err != nil {
		t.Errorf("synopsis file missing: %v", err)
	}
}

func TestRunLoadAndInExclusive(t *testing.T) {
	csv := writeTestCSV(t, 10)
	var sb strings.Builder
	err := run([]string{"-in", csv, "-load", "x.json", "-query", "0,0,1,1"}, &sb)
	if err == nil {
		t.Error("-in with -load accepted")
	}
}

func TestRunSynthesize(t *testing.T) {
	csv := writeTestCSV(t, 5000)
	var sb strings.Builder
	err := run([]string{
		"-in", csv, "-domain", "0,0,100,100", "-method", "ag",
		"-eps", "1", "-seed", "7", "-synthesize", "1000",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := datasets.ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1000 {
		t.Fatalf("synthesized %d points, want 1000", len(pts))
	}
	for i, p := range pts {
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("point %d (%v) outside domain", i, p)
		}
	}
}

func TestRunSynthesizeRejectsKDTree(t *testing.T) {
	csv := writeTestCSV(t, 100)
	var sb strings.Builder
	err := run([]string{
		"-in", csv, "-domain", "0,0,100,100", "-method", "kdhybrid",
		"-eps", "1", "-seed", "7", "-synthesize", "10",
	}, &sb)
	if err == nil {
		t.Error("kd-tree synthesize accepted")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats(" 1, 2.5 ,3,-4 ", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2.5, 3, -4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("parseFloats[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := parseFloats("1,2,3", 4); err == nil {
		t.Error("wrong arity accepted")
	}
}

// TestRunShardedSaveLoadQuery: -shards builds a sharded release that
// saves, reloads, and answers queries like any other synopsis.
func TestRunShardedSaveLoadQuery(t *testing.T) {
	csv := writeTestCSV(t, 20000)
	saved := filepath.Join(t.TempDir(), "mosaic.dpgrid")
	var sb strings.Builder
	err := run([]string{
		"-in", csv, "-domain", "0,0,100,100", "-method", "ag",
		"-eps", "1", "-seed", "7", "-shards", "2x2",
		"-save", saved, "-query", "0,0,50,50",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	built := sb.String()

	sb.Reset()
	if err := run([]string{"-load", saved, "-query", "0,0,50,50"}, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != built {
		t.Fatalf("loaded release answers %q, built release %q", sb.String(), built)
	}
}

func TestRunShardsValidation(t *testing.T) {
	csv := writeTestCSV(t, 100)
	base := []string{"-in", csv, "-domain", "0,0,100,100", "-eps", "1", "-query", "0,0,1,1"}
	if err := run(append([]string{"-shards", "2x2", "-method", "privlet"}, base...), io.Discard); err == nil {
		t.Error("-shards with privlet accepted")
	}
	for _, bad := range []string{"2", "0x1", "x", "axb"} {
		if err := run(append([]string{"-shards", bad, "-method", "ag"}, base...), io.Discard); err == nil {
			t.Errorf("-shards %q accepted", bad)
		}
	}
}

// TestRunSaveBinaryAndLoad: -format binary writes a dpgridv2 file that
// -load reads back with identical answers.
func TestRunSaveBinaryAndLoad(t *testing.T) {
	csv := writeTestCSV(t, 10000)
	for _, shards := range []string{"", "2x2"} {
		synFile := filepath.Join(t.TempDir(), "synopsis.dpgrid")
		args := []string{
			"-in", csv, "-domain", "0,0,100,100", "-method", "ag",
			"-eps", "1", "-seed", "7", "-format", "binary",
			"-save", synFile, "-query", "0,0,50,50",
		}
		if shards != "" {
			args = append(args, "-shards", shards)
		}
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatalf("shards=%q: %v", shards, err)
		}
		first := sb.String()

		data, err := os.ReadFile(synFile)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 8 || string(data[:8]) != "dpgridv2" {
			t.Fatalf("shards=%q: saved file does not start with the dpgridv2 magic: %.16q", shards, data)
		}

		sb.Reset()
		if err := run([]string{"-load", synFile, "-query", "0,0,50,50"}, &sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != first {
			t.Errorf("shards=%q: binary round trip answered %q, built %q", shards, sb.String(), first)
		}
	}
}

// TestRunLoadRejectsJSONDumps: -load rejects every JSON dump — the
// committed goldens, a hand-written sharded manifest and a dump that
// -format json has just written — with the error that says what it is.
func TestRunLoadRejectsJSONDumps(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(t.TempDir(), "synopsis.json")
	err = run([]string{
		"-in", writeTestCSV(t, 1000), "-domain", "0,0,100,100", "-method", "ug",
		"-eps", "1", "-seed", "3", "-format", "json", "-save", dump,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(dump); err != nil || !strings.HasPrefix(string(data), `{"format":"dpgrid/uniform-grid"`) {
		t.Fatalf("-format json wrote %.40q, %v", data, err)
	}
	if len(paths) != 7 {
		t.Fatalf("found %d JSON dumps under testdata, want 7: %v", len(paths), paths)
	}
	for _, path := range append(paths, dump) {
		err := run([]string{"-load", path, "-query", "0,0,1,1"}, io.Discard)
		if err == nil || err.Error() != "dpgrid: JSON synopsis files are a write-only dump; load the binary release (-format binary)" {
			t.Errorf("-load %s: err = %v", path, err)
		}
	}
}

// TestErrorLinePrefixOnce: the stderr line names the command once,
// whether the error comes from the library (already prefixed) or from
// the command itself.
func TestErrorLinePrefixOnce(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.dpgrid")
	cases := []struct {
		args []string
		want string // the whole line, or its prefix when it ends in "…"
	}{
		{[]string{"-load", filepath.Join("..", "..", "testdata", "golden.ag.json")},
			"dpgrid: JSON synopsis files are a write-only dump; load the binary release (-format binary)"},
		{[]string{"-load", filepath.Join("..", "..", "testdata", "v1", "golden.ag.dpgrid")},
			"dpgrid: codec: container version 1 no longer loads; convert it with a dpgrid that still reads it: dpgrid -load old.dpgrid -save new.dpgrid"},
		{[]string{"-load", missing}, "dpgrid: open " + missing + "…"},
		{nil, "dpgrid: -in is required (or -load a saved synopsis)"},
	}
	for _, tc := range cases {
		err := run(append(tc.args, "-query", "0,0,1,1"), io.Discard)
		if err == nil {
			t.Fatalf("%v: run succeeded", tc.args)
		}
		got := errorLine(err)
		if prefix, ok := strings.CutSuffix(tc.want, "…"); ok {
			if !strings.HasPrefix(got, prefix) {
				t.Errorf("%v: error line %q, want %q…", tc.args, got, prefix)
			}
		} else if got != tc.want {
			t.Errorf("%v: error line %q, want %q", tc.args, got, tc.want)
		}
	}
}

func TestRunBadFormat(t *testing.T) {
	csv := writeTestCSV(t, 100)
	err := run([]string{
		"-in", csv, "-domain", "0,0,100,100", "-method", "ug",
		"-eps", "1", "-format", "yaml", "-save", filepath.Join(t.TempDir(), "x"),
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-format") {
		t.Fatalf("bad -format: err = %v", err)
	}
}

// TestRunRejectsNonFiniteQuery: strconv.ParseFloat accepts "NaN" and
// "Inf", but the query path must not.
func TestRunRejectsNonFiniteQuery(t *testing.T) {
	csv := writeTestCSV(t, 100)
	for _, q := range []string{"NaN,0,1,1", "0,0,Inf,1", "0,-inf,1,1"} {
		err := run([]string{
			"-in", csv, "-domain", "0,0,100,100", "-method", "ug",
			"-eps", "1", "-seed", "3", "-query", q,
		}, io.Discard)
		if err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

// TestRunWorkersBitIdentical: the -workers flag must never change the
// released bytes — the parallel ingestion engine's determinism
// guarantee, observed end to end through the CLI.
func TestRunWorkersBitIdentical(t *testing.T) {
	csv := writeTestCSV(t, 20000)
	dir := t.TempDir()
	configs := [][]string{
		{"-method", "ug"},
		{"-method", "ag"},
		{"-method", "ag", "-shards", "2x2"},
	}
	for ci, extra := range configs {
		var files []string
		for _, workers := range []string{"1", "3", "0"} {
			out := filepath.Join(dir, fmt.Sprintf("c%d-w%s.dpgrid", ci, workers))
			args := append([]string{
				"-in", csv, "-domain", "0,0,100,100", "-eps", "1", "-seed", "7",
				"-workers", workers, "-format", "binary", "-save", out,
			}, extra...)
			var sb strings.Builder
			if err := run(args, &sb); err != nil {
				t.Fatalf("%v workers=%s: %v", extra, workers, err)
			}
			files = append(files, out)
		}
		want, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files[1:] {
			got, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v: %s differs from %s (release not worker-count independent)", extra, f, files[0])
			}
		}
	}
}

// TestRunAutoMatchesExplicitMethod checks that -method auto, which
// builds from the points it read to choose, releases exactly the bytes
// of naming its choice outright with the same seed.
func TestRunAutoMatchesExplicitMethod(t *testing.T) {
	csv := writeTestCSV(t, 20000)
	dir := t.TempDir()
	cases := []struct {
		method string // what auto resolves to
		extra  []string
	}{
		{"ag", []string{"-query", "10,10,20,20"}},
		{"ug", []string{"-query", "0,0,90,90"}},
		{"ag", []string{"-query", "10,10,20,20", "-shards", "2x2"}},
	}
	for ci, tc := range cases {
		var files []string
		for _, method := range []string{"auto", tc.method} {
			out := filepath.Join(dir, fmt.Sprintf("c%d-%s.dpgrid", ci, method))
			args := append([]string{
				"-in", csv, "-domain", "0,0,100,100", "-eps", "1", "-seed", "7",
				"-method", method, "-format", "binary", "-save", out,
			}, tc.extra...)
			if err := run(args, io.Discard); err != nil {
				t.Fatalf("%s %v: %v", method, tc.extra, err)
			}
			files = append(files, out)
		}
		auto, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := os.ReadFile(files[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(auto, explicit) {
			t.Errorf("%v: -method auto released different bytes than -method %s", tc.extra, tc.method)
		}
	}
}
