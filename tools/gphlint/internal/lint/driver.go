package lint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// A FactStore accumulates package facts across a run. Under the
// vettool protocol each compilation unit starts a fresh store seeded
// from the .vetx files of its imports; the fixture testkit shares one
// store across the packages of a test.
type FactStore struct {
	// entries maps (package path, fact type name) to the encoded
	// fact. Facts stay gob-encoded at rest so both drivers share one
	// representation and fact types are forced to be serializable.
	entries map[factKey][]byte
}

type factKey struct {
	path     string
	factType string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{entries: map[factKey][]byte{}}
}

func factTypeName(f Fact) string { return reflect.TypeOf(f).String() }

func (s *FactStore) set(path string, fact Fact) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		return fmt.Errorf("encoding %s fact for %s: %w", factTypeName(fact), path, err)
	}
	s.entries[factKey{path, factTypeName(fact)}] = buf.Bytes()
	return nil
}

func (s *FactStore) get(path string, ptr Fact) bool {
	data, ok := s.entries[factKey{path, factTypeName(ptr)}]
	if !ok {
		return false
	}
	return gob.NewDecoder(bytes.NewReader(data)).Decode(ptr) == nil
}

// all returns every stored fact assignable to the prototype's type,
// sorted by package path for deterministic reporting.
func (s *FactStore) all(prototypes []Fact) []PackageFact {
	var out []PackageFact
	for key, data := range s.entries {
		for _, proto := range prototypes {
			if key.factType != factTypeName(proto) {
				continue
			}
			ptr := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(Fact)
			if gob.NewDecoder(bytes.NewReader(data)).Decode(ptr) == nil {
				out = append(out, PackageFact{Path: key.path, Fact: ptr})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// A Unit is one type-checked package ready for analysis; both
// drivers produce it.
type Unit struct {
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files is the parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results.
	Info *types.Info
	// ModulePath is the owning module's path ("" outside the repo
	// module).
	ModulePath string
}

// RunAnalyzers executes each analyzer on the unit, importing facts
// from and exporting facts to store. It returns every diagnostic
// sorted by position; findings masked by a //gphlint:ignore comment
// are kept with Suppressed set (callers gate on it) so report modes
// can still see them.
func RunAnalyzers(unit *Unit, analyzers []*Analyzer, store *FactStore) ([]Diagnostic, error) {
	sup := collectSuppressions(unit.Fset, unit.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		a := a
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:   a,
			Fset:       unit.Fset,
			Files:      unit.Files,
			Pkg:        unit.Pkg,
			TypesInfo:  unit.Info,
			ModulePath: unit.ModulePath,
			Report:     func(d Diagnostic) { diags = append(diags, d) },
			ExportPackageFact: func(fact Fact) {
				if err := store.set(unit.Pkg.Path(), fact); err != nil {
					panic(err)
				}
			},
			ImportPackageFact: func(path string, ptr Fact) bool {
				return store.get(path, ptr)
			},
			AllPackageFacts: func() []PackageFact {
				return store.all(a.FactTypes)
			},
			Suppressed: func(pos token.Pos) bool {
				return sup.suppressed(a.Name, unit.Fset.Position(pos))
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range diags {
			d.Analyzer = a.Name
			d.Suppressed = sup.suppressed(a.Name, unit.Fset.Position(d.Pos))
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// suppressions records, per file and line, which analyzers a
// //gphlint:ignore comment silences.
type suppressions struct {
	byLine map[string]map[int][]string // file → line → analyzer names
}

// collectSuppressions scans every comment for the form
//
//	//gphlint:ignore <analyzer> [reason...]
//
// which silences the named analyzer's findings on the comment's line
// and on the line immediately below (so the comment can sit on its
// own line above the offending statement).
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "gphlint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "gphlint:ignore"))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
				lines[pos.Line+1] = append(lines[pos.Line+1], fields[0])
			}
		}
	}
	return s
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	for _, name := range s.byLine[pos.Filename][pos.Line] {
		if name == analyzer {
			return true
		}
	}
	return false
}

// RegisterFactTypes registers every analyzer's fact prototypes with
// gob; both drivers call it once before decoding any store.
func RegisterFactTypes(analyzers []*Analyzer) {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
}
