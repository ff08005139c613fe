package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRecords reads every run record under dir.
func loadRecords(dir string) ([]record, error) {
	var out []record
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload != "" {
			out = append(out, r)
		}
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no run records under %s", dir)
	}
	return out, err
}

// oneHost returns the fingerprint every record shares, or an error
// naming the first that differs.
func oneHost(recs []record) (fingerprint, error) {
	fp := recs[0].Host
	for _, r := range recs[1:] {
		if r.Host != fp {
			return fp, fmt.Errorf("runs come from different hosts: %+v and %+v", fp, r.Host)
		}
	}
	return fp, nil
}

// comparison is one metric of one workload on both sides; workload
// carries the run length, as in "serve-hot/15s".
type comparison struct {
	workload, metric, unit string
	a, b                   [3]float64 // q1, median, q3
	na, nb                 int
	beyond                 bool // |median b - median a| exceeds the interquartile range of a
}

// compareRecords pairs the metrics of side a (the baseline) and side b
// per workload, run kind (end-to-end or traced) and run length: phase
// lengths scale with --seconds, so runs of different lengths are never
// pooled or paired.
func compareRecords(a, b []record) []comparison {
	type key struct {
		workload string
		trace    int
		seconds  float64
		metric   string
	}
	collect := func(recs []record) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range recs {
			for m, v := range r.Metrics {
				k := key{r.Workload, r.Trace, r.Seconds, m}
				out[k] = append(out[k], v.Value)
			}
			// Steal shifts every timing of a run at once; show it beside them.
			k := key{r.Workload, r.Trace, r.Seconds, "host_steal_pct"}
			out[k] = append(out[k], r.HostStealPct)
		}
		return out
	}
	units := map[string]string{"host_steal_pct": "%"}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		units[s.name] = s.unit
	}
	va, vb := collect(a), collect(b)
	var keys []key
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].trace != keys[j].trace {
			return keys[i].trace < keys[j].trace
		}
		if keys[i].seconds != keys[j].seconds {
			return keys[i].seconds < keys[j].seconds
		}
		return keys[i].metric < keys[j].metric
	})
	var out []comparison
	for _, k := range keys {
		c := comparison{workload: fmt.Sprintf("%s/%gs", k.workload, k.seconds), metric: k.metric, unit: units[k.metric], na: len(va[k]), nb: len(vb[k])}
		c.a[0], c.a[1], c.a[2] = quartiles(va[k])
		c.b[0], c.b[1], c.b[2] = quartiles(vb[k])
		c.beyond = math.Abs(c.b[1]-c.a[1]) > c.a[2]-c.a[0]
		out = append(out, c)
	}
	return out
}

// compareMain prints, per workload and metric, each side's median and
// quartiles and whether the medians differ by more than side A's
// interquartile range. It refuses runs from different hosts.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <results dir A (baseline)> <results dir B>")
		return 2
	}
	a, err := loadRecords(args[0])
	if err == nil {
		var b []record
		if b, err = loadRecords(args[1]); err == nil {
			var fp fingerprint
			if fp, err = oneHost(append(append([]record(nil), a...), b...)); err == nil {
				fmt.Fprintf(w, "host: %s, %d CPUs, %s, kernel %s\n", fp.CPUModel, fp.NProc, fp.GoVersion, fp.Kernel)
				printComparisons(w, compareRecords(a, b))
				return 0
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

func printComparisons(w io.Writer, cs []comparison) {
	fmt.Fprintf(w, "%-22s %-30s %-6s %28s %28s %8s  %s\n", "workload", "metric", "unit",
		"A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
	for _, c := range cs {
		d := "n/a"
		if c.a[1] != 0 {
			d = fmt.Sprintf("%+.1f%%", (c.b[1]-c.a[1])/math.Abs(c.a[1])*100)
		}
		verdict := "within spread"
		if c.beyond {
			verdict = "BEYOND SPREAD"
		}
		fmt.Fprintf(w, "%-22s %-30s %-6s %28s %28s %8s  %s (n=%d/%d)\n", c.workload, c.metric, c.unit,
			fmt.Sprintf("%.4g [%.4g, %.4g]", c.a[1], c.a[0], c.a[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", c.b[1], c.b[0], c.b[2]),
			d, verdict, c.na, c.nb)
	}
}
