// Command dpbench regenerates the tables and figures of the paper's
// evaluation section (Qardaji, Yang, Li — "Differentially Private Grids
// for Geospatial Data", ICDE 2013) on the synthetic stand-in datasets.
//
// Usage:
//
//	dpbench -exp all                      # everything, full scale (slow)
//	dpbench -exp fig5 -dataset road -eps 1
//	dpbench -exp table2 -scale 0.1 -queries 100   # quick pass
//
// Experiments: table2, fig2, fig3, fig4, fig5, fig6, dim, ablate, all.
// Results print as text tables whose rows correspond to the paper's
// plotted series. The qualitative orderings every run must show are
// asserted by internal/eval/shape_test.go.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/eval"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dpbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table2|fig2|fig3|fig4|fig5|fig6|dim|ablate|all")
	dataset := fs.String("dataset", "", "restrict to one dataset (road|checkin|landmark|storage)")
	eps := fs.Float64("eps", 0, "restrict to one epsilon (0.1 or 1); 0 runs both")
	scale := fs.Float64("scale", 1, "dataset scale factor (1 = paper's N)")
	queries := fs.Int("queries", 200, "queries per size class")
	trials := fs.Int("trials", 1, "independently noised synopses per method")
	seed := fs.Int64("seed", 1, "master seed")
	parallel := fs.Bool("parallel", false, "evaluate methods concurrently (same results, less wall clock)")
	charts := fs.Bool("charts", false, "render ASCII line/candlestick charts after each table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := eval.ExpOptions{Scale: *scale, Queries: *queries, Trials: *trials, Seed: *seed, Parallel: *parallel}

	dsNames := datasets.Names()
	if *dataset != "" {
		dsNames = []string{*dataset}
	}
	epsValues := []float64{0.1, 1}
	if *eps != 0 {
		epsValues = []float64{*eps}
	}

	experiments := strings.Split(*exp, ",")
	if *exp == "all" {
		experiments = []string{"table2", "fig2", "fig3", "fig4", "fig5", "fig6", "dim", "ablate"}
	}
	for _, e := range experiments {
		if err := runExperiment(w, e, dsNames, epsValues, opts, *charts); err != nil {
			return err
		}
	}
	return nil
}

// emit writes a result as a table and, when charts is on, as ASCII line
// and candlestick charts in the paper's visual style.
func emit(w io.Writer, res *eval.Result, title string, charts bool) error {
	res.WriteTable(w, title)
	if charts {
		if err := res.WriteCharts(w, title); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}

func runExperiment(w io.Writer, exp string, dsNames []string, epsValues []float64, opts eval.ExpOptions, charts bool) error {
	switch exp {
	case "table2":
		rows, err := eval.TableII(opts)
		if err != nil {
			return err
		}
		eval.WriteTableII(w, rows)
		fmt.Fprintln(w)

	case "fig2":
		for _, name := range dsNames {
			for _, e := range epsValues {
				res, err := eval.Figure2(name, e, opts)
				if err != nil {
					return err
				}
				if err := emit(w, res, "Figure 2", charts); err != nil {
					return err
				}
			}
		}

	case "fig3":
		// The paper runs Figure 3 on checkin and landmark only.
		for _, name := range intersect(dsNames, []string{"checkin", "landmark"}) {
			for _, e := range epsValues {
				res, err := eval.Figure3(name, e, opts)
				if err != nil {
					return err
				}
				if err := emit(w, res, "Figure 3", charts); err != nil {
					return err
				}
			}
		}

	case "fig4":
		for _, name := range intersect(dsNames, []string{"checkin", "landmark"}) {
			for _, e := range epsValues {
				for _, panel := range []struct {
					p     eval.Figure4Panel
					title string
				}{
					{eval.Fig4Compare, "Figure 4 (AG vs UG/Privlet)"},
					{eval.Fig4VaryM1, "Figure 4 (vary m1)"},
					{eval.Fig4VaryAlphaC2, "Figure 4 (vary alpha, c2)"},
				} {
					res, err := eval.Figure4(name, e, panel.p, 0, opts)
					if err != nil {
						return err
					}
					if err := emit(w, res, panel.title, charts); err != nil {
						return err
					}
				}
			}
		}

	case "fig5", "fig6":
		for _, name := range dsNames {
			for _, e := range epsValues {
				res, err := eval.Figure5(name, e, opts)
				if err != nil {
					return err
				}
				if exp == "fig5" {
					if err := emit(w, res, "Figure 5", charts); err != nil {
						return err
					}
				} else {
					res.WriteAbsTable(w, "Figure 6")
					fmt.Fprintln(w)
				}
			}
		}

	case "dim":
		for _, e := range epsValues {
			rows, err := eval.Dimensionality(e, opts)
			if err != nil {
				return err
			}
			eval.WriteDimensionality(w, rows, e)
			fmt.Fprintln(w)
			gains, err := eval.HierarchyGainByDimension(e, opts)
			if err != nil {
				return err
			}
			eval.WriteHierarchyGain(w, gains, e)
			fmt.Fprintln(w)
		}

	case "ablate":
		// Design-choice ablations (beyond the paper's figures): the
		// Guideline 1 constant, AG's constrained inference, KD-hybrid's
		// optimizations.
		for _, name := range intersect(dsNames, []string{"checkin", "landmark"}) {
			for _, e := range epsValues {
				rows, err := eval.AblationC(name, e, opts)
				if err != nil {
					return err
				}
				eval.WriteAblationC(w, name, e, rows)
				fmt.Fprintln(w)
				res, err := eval.AblationComponents(name, e, opts)
				if err != nil {
					return err
				}
				if err := emit(w, res, "Ablation: component contributions", charts); err != nil {
					return err
				}
				asp, err := eval.AblationAspect(name, e, opts)
				if err != nil {
					return err
				}
				if err := emit(w, asp, "Ablation: aspect-ratio-aware UG", charts); err != nil {
					return err
				}
			}
		}

	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func intersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
			}
		}
	}
	return out
}
