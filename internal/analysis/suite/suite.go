// Package suite assembles the dplint analyzer set. There is exactly one
// list so the standalone driver, the go-vet shim, and the repo-clean
// meta-test can never disagree about what is enforced.
package suite

import (
	"github.com/dpgrid/dpgrid/internal/analysis"
	"github.com/dpgrid/dpgrid/internal/analysis/passes/alloccap"
	"github.com/dpgrid/dpgrid/internal/analysis/passes/atomicwrite"
	"github.com/dpgrid/dpgrid/internal/analysis/passes/ctxflow"
	"github.com/dpgrid/dpgrid/internal/analysis/passes/maporder"
	"github.com/dpgrid/dpgrid/internal/analysis/passes/noisedet"
	"github.com/dpgrid/dpgrid/internal/analysis/passes/unsafeonly"
)

// ModulePath is the module the suite's scope rules are written against.
const ModulePath = "github.com/dpgrid/dpgrid"

// Analyzers returns the full dplint suite in diagnostic-code order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		noisedet.Analyzer,    // DPL001
		maporder.Analyzer,    // DPL002
		ctxflow.Analyzer,     // DPL003
		atomicwrite.Analyzer, // DPL004
		alloccap.Analyzer,    // DPL005
		unsafeonly.Analyzer,  // DPL006
	}
}
