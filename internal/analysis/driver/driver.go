// Package driver runs blobvet analyzers over type-checked packages.
//
// It provides the pieces shared by every entry point (standalone
// cmd/blobvet, the vet-protocol unitchecker, and the analysistest
// harness): the cross-package fact store, the per-package runner, and
// //blobvet:allow suppression filtering.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"

	"blobdb/internal/analysis"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Diag is one rendered diagnostic.
type Diag struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s [blobvet:%s]", d.Pos, d.Message, d.Analyzer)
}

// FactKey identifies one exported object fact.
type FactKey struct {
	Analyzer string
	PkgPath  string
	ObjPath  string
}

// Facts is the cross-package fact store. Packages must be analyzed in
// dependency order so importers observe their dependencies' facts.
type Facts struct {
	m map[FactKey]analysis.Fact
}

func NewFacts() *Facts { return &Facts{m: map[FactKey]analysis.Fact{}} }

// Put records fact under key, replacing any previous value.
func (f *Facts) Put(key FactKey, fact analysis.Fact) { f.m[key] = fact }

// Get copies the stored fact for key into out (which must be a pointer of
// the stored concrete type) and reports whether one existed.
func (f *Facts) Get(key FactKey, out analysis.Fact) bool {
	got, ok := f.m[key]
	if !ok {
		return false
	}
	ov := reflect.ValueOf(out)
	gv := reflect.ValueOf(got)
	if ov.Type() != gv.Type() {
		return false
	}
	ov.Elem().Set(gv.Elem())
	return true
}

// AllOf returns every fact exported by one analyzer, across all packages
// seen so far, in deterministic (PkgPath, ObjPath) order. This is the
// enumeration the interprocedural passes consume: unexported dependency
// functions have no types.Object on the importing side, so their facts
// are only reachable by key.
func (f *Facts) AllOf(analyzer string) []analysis.ObjectFact {
	var out []analysis.ObjectFact
	for k, fact := range f.m {
		if k.Analyzer == analyzer {
			out = append(out, analysis.ObjectFact{PkgPath: k.PkgPath, ObjPath: k.ObjPath, Fact: fact})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PkgPath != out[j].PkgPath {
			return out[i].PkgPath < out[j].PkgPath
		}
		return out[i].ObjPath < out[j].ObjPath
	})
	return out
}

// All returns the stored facts in deterministic key order.
func (f *Facts) All() ([]FactKey, []analysis.Fact) {
	keys := make([]FactKey, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.ObjPath < b.ObjPath
	})
	facts := make([]analysis.Fact, len(keys))
	for i, k := range keys {
		facts[i] = f.m[k]
	}
	return keys, facts
}

// Expand returns analyzers plus their transitive Requires closure in
// dependency order (requirements strictly before their dependents),
// deduplicated. Every entry point expands before running, so listing an
// interprocedural analyzer is enough — its summary producer runs first
// on the same package, and its facts are in the store when the consumer
// asks for them.
func Expand(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	seen := map[*analysis.Analyzer]bool{}
	var visit func(a *analysis.Analyzer)
	visit = func(a *analysis.Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, req := range a.Requires {
			visit(req)
		}
		out = append(out, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return out
}

// RunPackage applies analyzers (expanded with their Requires closure, in
// dependency order) to pkg, reading and writing object facts through
// facts, and returns the surviving diagnostics: suppressed ones are
// dropped (a reasoned //blobvet:allow covers exactly one line: its own
// when it trails code, the next one when it stands alone on its line),
// every reason-less allow comment is itself reported under the
// pseudo-analyzer name "allow", and so is every reasoned allow that no
// longer suppresses anything (the stale-allow audit; _test.go files are
// exempt, as analyzers skip them).
func RunPackage(pkg *Package, analyzers []*analysis.Analyzer, facts *Facts) ([]Diag, error) {
	sup := analysis.ScanSuppressions(pkg.Fset, pkg.Files)

	var out []Diag
	for _, a := range Expand(analyzers) {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			if sup.Suppressed(pkg.Fset, d.Pos) {
				return
			}
			out = append(out, Diag{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
		}
		pass.ImportObjectFact = func(obj types.Object, fact analysis.Fact) bool {
			if obj == nil || obj.Pkg() == nil {
				return false
			}
			op := analysis.ObjectPath(obj)
			if op == "" {
				return false
			}
			return facts.Get(FactKey{Analyzer: a.Name, PkgPath: obj.Pkg().Path(), ObjPath: op}, fact)
		}
		pass.ExportObjectFact = func(obj types.Object, fact analysis.Fact) {
			if obj == nil || obj.Pkg() != pkg.Types {
				return
			}
			op := analysis.ObjectPath(obj)
			if op == "" {
				return
			}
			facts.Put(FactKey{Analyzer: a.Name, PkgPath: pkg.Types.Path(), ObjPath: op}, fact)
		}
		pass.AllObjectFacts = func(analyzer string) []analysis.ObjectFact {
			return facts.AllOf(analyzer)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	for _, d := range sup.BareAllows() {
		out = append(out, Diag{Analyzer: "allow", Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
	}
	for _, d := range sup.Stale() {
		out = append(out, Diag{Analyzer: "allow", Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
