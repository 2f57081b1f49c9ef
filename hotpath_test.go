package gph_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHotPaths is the allocation gate of the query paths. Every function
// annotated //gph:hotpath, and every module function it reaches by static
// calls (interface methods and function values are not followed), across
// packages, must not contain a construct that allocates or adds per-call
// work: defer, make(map) or a map literal, a string↔[]byte conversion, a
// closure capturing a variable of its function, a method value not called
// at once, or a fmt call outside a return statement or a panic argument
// (error exits run once). A finding names its chain from the annotated
// root. A site that is meant stays, with
//
//	//gphlint:ignore hotpath <reason>
//
// on its line or the line above; the site is then not reported, through
// any chain. An ignore whose lines hold no banned construct is stale and
// fails the test, and so does a //gph:hotpath that is not on a function's
// doc comment. The module is type-checked from source against the export
// data `go list -export` names; test files are not checked.
func TestHotPaths(t *testing.T) {
	start := time.Now()
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	fns, ignores, annotations := mod.fns, mod.ignores, mod.annotations
	var roots []string
	for _, q := range slices.Sorted(maps.Keys(fns)) {
		if fns[q].root {
			roots = append(roots, q)
		}
	}
	if len(roots) != annotations {
		t.Errorf("%d //gph:hotpath comments, %d on a function's doc comment", annotations, len(roots))
	}
	// Breadth first from every root in turn, so that each site is named
	// through the shortest chain from the first root that reaches it.
	from := map[string]string{} // function → its caller on the chain
	reported := map[string]bool{}
	for _, root := range roots {
		if _, seen := from[root]; seen {
			continue
		}
		from[root] = ""
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			q := queue[0]
			for _, v := range fns[q].viols {
				if v.suppressed || reported[v.pos] {
					continue
				}
				reported[v.pos] = true
				chain := q
				for c := from[q]; c != ""; c = from[c] {
					chain = c + " → " + chain
				}
				t.Errorf("%s: hot path: %s\n\tvia %s", v.pos, v.what, strings.ReplaceAll(chain, "gph/", ""))
			}
			for _, c := range fns[q].callees {
				if _, seen := from[c]; !seen && fns[c] != nil {
					from[c] = q
					queue = append(queue, c)
				}
			}
		}
	}
	used := 0
	for _, ig := range ignores {
		switch {
		case ig.rule != "hotpath":
			t.Errorf("%s: //gphlint:ignore names %q; the one rule left is hotpath", ig.pos, ig.rule)
		case !ig.used:
			t.Errorf("%s: stale //gphlint:ignore hotpath: no banned construct on its line or the next", ig.pos)
		default:
			used++
		}
	}
	t.Logf("%d //gph:hotpath roots, %d functions reached of %d, %d sites ignored, in %v",
		len(roots), len(from), len(fns), used, time.Since(start).Round(time.Millisecond))
}

// TestForceIsATestSeam holds cpu.Force — the switch that forces a
// query's route, scan kernel and projector — to tests: every function
// that calls it lies in a test file (not loaded here) or in a package
// under internal/ that no non-test file imports, the test-support
// packages such as enginetest. A program built from the module then
// cannot reach it, and it stays a seam, not an option.
func TestForceIsATestSeam(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	const force = "gph/internal/cpu.Force"
	for _, name := range slices.Sorted(maps.Keys(mod.fns)) {
		fn := mod.fns[name]
		if !slices.Contains(fn.callees, force) {
			continue
		}
		if importers := mod.importers[fn.pkg]; len(importers) > 0 || !strings.HasPrefix(fn.pkg, "gph/internal/") {
			t.Errorf("%s calls cpu.Force outside a test; its package is imported by %v", name, importers)
		} else {
			t.Logf("%s calls cpu.Force; no non-test file imports %s", name, fn.pkg)
		}
	}
}

// hotFn is what TestHotPaths records of one function declaration.
type hotFn struct {
	pkg     string
	root    bool
	viols   []hotViol
	callees []string // the module functions it calls, by types.Func.FullName
}

type hotViol struct {
	pos, what  string
	suppressed bool
}

type hotIgnore struct {
	pos, rule string
	used      bool
}

// moduleSummary is the module's non-test code as the tests of this file
// read it: each function declaration by qualified name, the
// //gphlint:ignore comments, the number of //gph:hotpath comments, and
// each module package's importers among the module's packages.
type moduleSummary struct {
	fns         map[string]*hotFn
	ignores     []*hotIgnore
	annotations int
	importers   map[string][]string
}

// loadModule type-checks the module once for every test that reads it.
var loadModule = sync.OnceValues(loadHotPathSummaries)

// loadHotPathSummaries type-checks every package of the module and
// summarizes each of its function declarations by qualified name.
func loadHotPathSummaries() (*moduleSummary, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-f",
		"{{.ImportPath}}\t{{.Export}}\t{{.Standard}}\t{{.Dir}}\t{{join .Imports \" \"}}\t{{join .GoFiles \"\\t\"}}", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var module [][]string // import path, export data, standard, directory, imports, files
	exports := map[string]string{}
	mod := &moduleSummary{fns: map[string]*hotFn{}, importers: map[string][]string{}}
	for l := range strings.Lines(string(out)) {
		p := strings.Split(strings.TrimSuffix(l, "\n"), "\t")
		if exports[p[0]] = p[1]; p[2] == "false" && p[5] != "" { // a package of tests alone has nothing to check
			module = append(module, p)
			for _, imp := range strings.Fields(p[4]) {
				mod.importers[imp] = append(mod.importers[imp], p[0])
			}
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, p := range module {
		dir, _ := filepath.Rel(wd, p[3]) // both absolute, so no error; positions read from the module root
		var files []*ast.File
		for _, name := range p[5:] {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		if _, err := conf.Check(p[0], fset, files, info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p[0], err)
		}
		// An ignore covers its own line and the next.
		type line struct {
			file string
			n    int
		}
		covers := map[line]*hotIgnore{}
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if text == "gph:hotpath" {
						mod.annotations++
					}
					if rest, ok := strings.CutPrefix(text, "gphlint:ignore"); ok {
						rule, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
						ps := fset.Position(c.Pos())
						ig := &hotIgnore{pos: ps.String(), rule: rule}
						mod.ignores = append(mod.ignores, ig)
						covers[line{ps.Filename, ps.Line}], covers[line{ps.Filename, ps.Line + 1}] = ig, ig
					}
				}
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := &hotFn{pkg: p[0], root: fd.Doc != nil && slices.ContainsFunc(fd.Doc.List, func(c *ast.Comment) bool {
					return strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "gph:hotpath"
				})}
				fn.callees, fn.viols = summarizeHot(info, fd, func(pos token.Pos, what string) hotViol {
					ps := fset.Position(pos)
					ig := covers[line{ps.Filename, ps.Line}]
					suppressed := ig != nil && ig.rule == "hotpath"
					if suppressed {
						ig.used = true
					}
					return hotViol{ps.String(), what, suppressed}
				})
				mod.fns[info.Defs[fd.Name].(*types.Func).FullName()] = fn
			}
		}
	}
	return mod, nil
}

// summarizeHot walks one function body, closures included, for the
// module functions it calls statically and the banned constructs in it.
func summarizeHot(info *types.Info, fd *ast.FuncDecl, viol func(token.Pos, string) hotViol) (callees []string, viols []hotViol) {
	ban := func(n ast.Node, what string) { viols = append(viols, viol(n.Pos(), what)) }
	isMap := func(e ast.Expr) bool {
		_, ok := info.TypeOf(e).Underlying().(*types.Map)
		return ok
	}
	var stack []ast.Node // open ancestors, the node itself last
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.DeferStmt:
			ban(n, "defer")
		case *ast.CompositeLit:
			if isMap(n) {
				ban(n, "map literal")
			}
		case *ast.FuncLit:
			if v := captured(info, fd, n); v != "" {
				ban(n, "closure capturing "+v)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && !calledAt(stack) {
				ban(n, "method value "+n.Sel.Name+" not called at once")
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 && isStringBytes(tv.Type, info.TypeOf(n.Args[0])) {
					ban(n, "string↔[]byte conversion")
				}
				break
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("make") && isMap(n) {
				ban(n, "make(map)")
			}
			callee := staticCallee(info, n)
			switch {
			case callee == nil || callee.Pkg() == nil:
			case callee.Pkg().Path() == "fmt" && !onErrorExit(stack):
				ban(n, "fmt."+callee.Name()+" outside a return or a panic")
			case callee.Pkg().Path() == "gph" || strings.HasPrefix(callee.Pkg().Path(), "gph/"):
				callees = append(callees, callee.Origin().FullName())
			}
		}
		return true
	})
	return callees, viols
}

// captured returns the name of a variable of fd, declared outside lit,
// that lit refers to, or "".
func captured(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && name == "" {
			if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() &&
				v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
				name = v.Name()
			}
		}
		return name == ""
	})
	return name
}

// calledAt reports whether the node last on stack is, parentheses
// aside, the function a call expression calls.
func calledAt(stack []ast.Node) bool {
	node := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			node = p
		case *ast.CallExpr:
			return p.Fun == node
		default:
			return false
		}
	}
	return false
}

// onErrorExit reports whether an open ancestor is a return statement or
// a call of panic.
func onErrorExit(stack []ast.Node) bool {
	return slices.ContainsFunc(stack, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && id.Name == "panic"
		}
		_, ok := n.(*ast.ReturnStmt)
		return ok
	})
}

// staticCallee returns the function a call invokes statically: a
// package function, or a method on a concrete receiver; nil otherwise.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if f, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
				return f
			}
			return nil
		}
		f, _ := info.Uses[fun.Sel].(*types.Func) // pkg.F
		return f
	}
	return nil
}

// isStringBytes reports whether one of a and b is a string type and the
// other a byte slice.
func isStringBytes(a, b types.Type) bool {
	bytes := types.NewSlice(types.Typ[types.Byte])
	isString := func(t types.Type) bool {
		basic, ok := t.Underlying().(*types.Basic)
		return ok && basic.Info()&types.IsString != 0
	}
	return isString(a) && types.Identical(b.Underlying(), bytes) || types.Identical(a.Underlying(), bytes) && isString(b)
}
