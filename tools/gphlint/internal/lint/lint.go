// Package lint is gphlint's analysis framework: a self-contained,
// stdlib-only equivalent of the golang.org/x/tools/go/analysis API
// (the repo builds offline and vendors nothing, so the framework the
// multichecker needs is implemented here on go/ast and go/types).
// It defines the Analyzer/Pass contract, package facts for
// cross-package analyses, and the suppression-comment convention;
// the drivers live in unit.go (go vet -vettool protocol) and in
// testkit (fixture tests).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named invariant check. Run inspects a single
// type-checked package through its Pass and reports diagnostics;
// analyses that need cross-package state exchange it through package
// facts (FactTypes declares the concrete types used, for gob).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// suppression comments; it must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// FactTypes lists prototype values of every fact type the
	// analyzer exports or imports (registered with gob).
	FactTypes []Fact
	// Run executes the analyzer on one package.
	Run func(*Pass) error
}

// A Fact is a datum one package's analysis leaves behind for the
// packages that import it (directly or transitively). Concrete fact
// types must be gob-serializable structs; the marker method keeps
// arbitrary types from being exported accidentally.
type Fact interface{ AFact() }

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	// Pos locates the violation.
	Pos token.Pos
	// Message describes it; the analyzer name is prefixed
	// automatically when printed.
	Message string
	// Analyzer is the reporting analyzer's name (filled by the
	// driver).
	Analyzer string
	// Suppressed marks findings masked by a //gphlint:ignore comment.
	// The drivers keep them (flagged) instead of dropping them so the
	// -json output and the -suppressions staleness check can tell a
	// suppression that masks a live finding from one that masks
	// nothing.
	Suppressed bool
}

// A PackageFact pairs an imported fact with the package that
// exported it.
type PackageFact struct {
	// Path is the exporting package's import path.
	Path string
	// Fact is the decoded fact value.
	Fact Fact
}

// A Pass carries one package's syntax, types and fact store through
// an analyzer's Run. The analyzer must treat everything reachable
// from it as read-only except via Report and ExportPackageFact.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files is the package's parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// ModulePath is the path of the module the package belongs to
	// ("" for packages outside any module, e.g. the standard
	// library under the vettool protocol). Analyzers gate fact
	// computation on it so dependency-only runs over the standard
	// library stay cheap.
	ModulePath string
	// Report records one diagnostic.
	Report func(Diagnostic)
	// ExportPackageFact publishes a fact about the current package
	// to every package that imports it.
	ExportPackageFact func(fact Fact)
	// ImportPackageFact copies the fact of type *ptr exported by
	// path into ptr, reporting whether one exists. Facts flow from
	// the full import closure, not just direct imports.
	ImportPackageFact func(path string, ptr Fact) bool
	// AllPackageFacts lists every imported fact whose type matches
	// one of the analyzer's FactTypes, in deterministic order.
	AllPackageFacts func() []PackageFact
	// Suppressed reports whether a //gphlint:ignore comment for this
	// analyzer covers pos. The driver already drops suppressed
	// diagnostics; fact-producing analyzers additionally consult this
	// so a suppressed finding does not leak into an exported fact and
	// resurface in a downstream package.
	Suppressed func(pos token.Pos) bool
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InModule reports whether the package under analysis belongs to the
// repository module. Fact-producing analyzers use it to skip
// dependency-only runs over the standard library.
func (p *Pass) InModule() bool { return p.ModulePath != "" }

// IsTestFile reports whether pos lies in a _test.go file. The
// analyzers check production invariants only: go vet hands each
// package to the tool with its test files compiled in, and test
// fakes are free to break hot-path or snapshot rules.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f == nil || strings.HasSuffix(f.Name(), "_test.go")
}

// HasAnnotation reports whether the doc comment group carries the
// given //gph:<marker> annotation (exact word on its own line, e.g.
// //gph:hotpath).
func HasAnnotation(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}
