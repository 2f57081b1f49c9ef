// Package analyzers holds gphlint's three analyzers, each encoding one
// of the repository's load-bearing invariants that no test can check
// on the running code: hotpath (allocation-free annotated query
// paths), borrowalias (zero-copy arena borrows on the mapped open
// path) and snapshotsafety (immutable published shard snapshots). The
// documentation, determinism, error-sentinel, resource-pairing, epoch
// and lock rules run as tests under go test. DESIGN.md §11 names those
// tests and says how to suppress a finding.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"gph/tools/gphlint/internal/lint"
)

// All returns the complete analyzer suite in reporting order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		Hotpath,
		BorrowAlias,
		SnapshotSafety,
	}
}

// walkStack visits every node of root in source order, passing the
// stack of open ancestors (root first, the node itself last). The
// visit function returns false to skip the node's children.
func walkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !visit(n, stack) {
			// Children are skipped; pop now because the nil pop-back
			// will not arrive.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// staticCallee resolves a call expression to the *types.Func it
// statically invokes: package-level functions, and methods called on
// concrete (non-interface) receivers. Dynamic calls — interface
// methods, function values — resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
				return f
			}
			return nil
		}
		// No selection entry: a package-qualified identifier pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcQName returns the module-wide qualified name of fn, e.g.
// "gph/internal/core.(*Index).search" — the key the cross-package
// fact maps use.
func funcQName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // error.Error and friends
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			ptr = "*"
		}
		name := "?"
		if n, okn := t.(*types.Named); okn {
			name = n.Obj().Name()
		}
		return fn.Pkg().Path() + ".(" + ptr + name + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// declQName returns the qualified name of a function declaration in
// the package under analysis, or "" if it lacks type information.
func declQName(info *types.Info, decl *ast.FuncDecl) string {
	fn, ok := info.Defs[decl.Name].(*types.Func)
	if !ok {
		return ""
	}
	return funcQName(fn)
}

// calleePkgPath returns the defining package path of fn ("" for
// builtins and universe-scope functions).
func calleePkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pkgPathHasSuffix reports whether path equals suffix or ends in
// "/"+suffix — how analyzers scope themselves to repo packages while
// letting test fixtures mirror those paths under shorter roots.
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// shortPos renders a stable "file:line" with the path's base name
// (full build paths would differ between CI and local runs).
func shortPos(filename string, line int) string {
	if i := strings.LastIndexByte(filename, '/'); i >= 0 {
		filename = filename[i+1:]
	}
	return fmt.Sprintf("%s:%d", filename, line)
}
