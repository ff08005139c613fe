// Package unsafeonly implements dplint's DPL006 check: package unsafe
// may be imported only by internal/codec/alias.go, the one helper that
// views aligned container bytes as a []float64. Every decoded synopsis
// rests on that aliasing, so it has to stay one reviewed function: an
// unsafe conversion anywhere else could hand out a writable view of
// read-only mapped bytes or read past a section's end. Tests are not
// checked.
package unsafeonly

import (
	"go/types"
	"path/filepath"
	"strconv"

	"github.com/dpgrid/dpgrid/internal/analysis"
)

// allowedPkg and allowedFile name the one file that may import unsafe.
const (
	allowedPkg  = "internal/codec"
	allowedFile = "alias.go"
)

var Analyzer = &analysis.Analyzer{
	Name: "unsafeonly",
	Code: "DPL006",
	Doc: "forbid importing unsafe outside internal/codec/alias.go, " +
		"the single helper that aliases container bytes as []float64",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if pass.RelPath == allowedPkg && name == allowedFile {
			continue
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == types.Unsafe.Path() {
				pass.Reportf(imp.Pos(), "import of unsafe outside %s/%s: "+
					"decode float sections with codec.Dec.F64s instead", allowedPkg, allowedFile)
			}
		}
	}
	return nil
}
