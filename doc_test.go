package gph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDocComments is the documentation gate. Every package in the
// module has a package comment, and in the public packages (gph and
// gph/datagen) every exported top-level name has a doc comment: a name
// in a documented const, var or type block counts, and methods on
// unexported types are exempt. Test files do not count. The walk skips
// testdata, dot-directories and nested modules (benchmark/).
func TestDocComments(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // directory → its non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pkgs["."] == nil || pkgs["datagen"] == nil {
		t.Fatal("the walk did not start at the module root")
	}
	for _, dir := range slices.Sorted(maps.Keys(pkgs)) {
		files := pkgs[dir]
		if !slices.ContainsFunc(files, func(f *ast.File) bool { return f.Doc != nil }) {
			t.Errorf("%s: package %s has no package comment", dir, files[0].Name.Name)
		}
		if dir != "." && dir != "datagen" {
			continue
		}
		for _, f := range files {
			for _, name := range undocumented(f) {
				t.Errorf("%s: exported %s has no doc comment", fset.Position(name.Pos()), name.Name)
			}
		}
	}
}

// undocumented returns f's exported top-level names that have no doc
// comment of their own or of their declaration block, leaving out
// methods on unexported types.
func undocumented(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && (d.Recv == nil || exportedRecv(d.Recv)) {
				out = append(out, d.Name)
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && sp.Doc == nil {
						out = append(out, sp.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() && sp.Doc == nil {
							out = append(out, n)
						}
					}
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a method receiver names an exported
// type.
func exportedRecv(recv *ast.FieldList) bool {
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) { // generic receivers
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}
