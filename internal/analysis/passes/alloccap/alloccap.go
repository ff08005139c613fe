// Package alloccap implements dplint's DPL005 check: in decode paths —
// internal/codec and the per-kind serialize.go files — a slice
// allocation whose length comes off the wire must be bounded before the
// make. `make([]T, n)` with an attacker-controlled n is an OOM primitive
// against the server: a 12-byte synopsis file claiming 2^40 nodes must
// fail validation, not allocate.
//
// The check fires only inside functions that touch a codec.Dec (encode
// paths build from trusted in-memory state). A length expression is
// accepted when it is a constant, derives from len/cap, comes from the
// bounded cursor (Dec.Len validates the claimed count against the bytes
// actually remaining; Dec.F64s cross-checks its argument), or
// is guarded by an early-exit branch that inspects it before the make.
package alloccap

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"github.com/dpgrid/dpgrid/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "alloccap",
	Code: "DPL005",
	Doc: "in decode paths (internal/codec, serialize.go files), require wire-derived " +
		"make lengths to be bounded via Dec.Len/F64s or an explicit guard",
	Run: run,
}

// boundedDecMethods validate their count against the remaining input.
var boundedDecMethods = map[string]bool{"Len": true, "F64s": true}

func run(pass *analysis.Pass) error {
	codecPkg := strings.HasPrefix(pass.RelPath, "internal/codec")
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if !codecPkg && name != "serialize.go" && name != "binary.go" {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !usesDec(pass, fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// usesDec reports whether the function touches a codec.Dec (receiver,
// parameter, or any referenced value) — the marker of a decode path.
func usesDec(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil && obj.Type() != nil && isDecType(obj.Type()) {
			found = true
		}
		return !found
	})
	return found
}

func isDecType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Dec" && obj.Pkg() != nil && obj.Pkg().Name() == "codec"
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(call.Args) < 2 {
			return true
		}
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		tv, ok := pass.Info.Types[call.Args[0]]
		if !ok {
			return true
		}
		if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
			return true
		}
		for _, sizeArg := range call.Args[1:] {
			if !safeSize(pass, fd, sizeArg, call.Pos()) {
				pass.Reportf(call.Pos(), "make length %s is wire-derived and unbounded: "+
					"validate it with Dec.Len or check it against Remaining before allocating",
					exprString(sizeArg))
				break
			}
		}
		return true
	})
}

func safeSize(pass *analysis.Pass, fd *ast.FuncDecl, e ast.Expr, at token.Pos) bool {
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
		return true // compile-time constant
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return safeSize(pass, fd, e.X, at)
	case *ast.BinaryExpr:
		return safeSize(pass, fd, e.X, at) && safeSize(pass, fd, e.Y, at)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		// A direct make(..., d.Len(k)) is bounded by construction.
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && boundedDecMethods[sel.Sel.Name] {
			return true
		}
		return false
	case *ast.Ident, *ast.SelectorExpr:
		obj := sizeObj(pass, e)
		if obj == nil {
			return false
		}
		return boundedBefore(pass, fd, obj, at)
	default:
		return false
	}
}

func sizeObj(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if o := pass.Info.Uses[e]; o != nil {
			return o
		}
		return pass.Info.Defs[e]
	case *ast.SelectorExpr:
		return pass.Info.Uses[e.Sel]
	}
	return nil
}

// boundedBefore reports whether obj is validated somewhere before the
// make at pos `at`: assigned from a bounded Dec method or len/cap,
// passed into a bounded Dec method (which cross-checks it), or inspected
// by an early-exit if statement.
func boundedBefore(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object, at token.Pos) bool {
	bounded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if bounded || n == nil || n.Pos() >= at {
			return !bounded
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sizeObj(pass, lhs) != obj || i >= len(n.Rhs) {
					continue
				}
				if rhsBounded(pass, n.Rhs[i]) {
					bounded = true
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !boundedDecMethods[sel.Sel.Name] {
				return true
			}
			for _, arg := range n.Args {
				if sizeObj(pass, arg) == obj {
					bounded = true
				}
			}
		case *ast.IfStmt:
			if n.Body != nil && exitsEarly(n.Body) && mentions(pass, n.Cond, obj) {
				bounded = true
			}
		}
		return !bounded
	})
	return bounded
}

func rhsBounded(pass *analysis.Pass, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return boundedDecMethods[fun.Sel.Name]
	case *ast.Ident:
		if fun.Name == "len" || fun.Name == "cap" {
			_, isBuiltin := pass.Info.Uses[fun].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}

func exitsEarly(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			found = true
		case *ast.CallExpr:
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func mentions(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if pass.Info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.BinaryExpr:
		return exprString(e.X) + e.Op.String() + exprString(e.Y)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "<expr>"
	}
}
