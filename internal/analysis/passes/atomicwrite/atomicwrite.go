// Package atomicwrite implements dplint's DPL004 check: files must be
// published through internal/atomicfile (write to a staging file, sync,
// rename), never with os.Create or os.WriteFile directly. A direct
// write that dies mid-way leaves a truncated synopsis, manifest, or
// generated dataset on disk that readers then parse as real data;
// rename is the only publish primitive that is atomic on POSIX
// filesystems. The internal/atomicfile package itself is exempt (it
// is the implementation), as are tests.
package atomicwrite

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/dpgrid/dpgrid/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicwrite",
	Code: "DPL004",
	Doc: "forbid direct os.Create/os.WriteFile outside internal/atomicfile; " +
		"publish files via the atomic write-rename helper",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if strings.HasPrefix(pass.RelPath, "internal/atomicfile") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "os" {
				return true
			}
			switch sel.Sel.Name {
			case "Create", "WriteFile":
				pass.Reportf(call.Pos(), "direct os.%s can leave a half-written file on crash: "+
					"publish through internal/atomicfile (write-sync-rename)", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
