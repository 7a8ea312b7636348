// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time and reports Diagnostics; object Facts flow
// from a package to its importers so cross-package properties (such as
// deprecation) can be checked modularly.
//
// The repository cannot vendor x/tools (the build must work from the Go
// toolchain alone), so this package provides the same contract with the
// same shapes. The API is deliberately a subset: if the tree ever gains an
// x/tools dependency, each analyzer ports by changing one import path.
//
// Drivers: cmd/blobvet runs the suite either standalone (via
// internal/analysis/driver, which loads packages with `go list`) or under
// `go vet -vettool` (via internal/analysis/unitchecker, which speaks the
// vet cfg/vetx protocol).
//
// # Suppression
//
// Every diagnostic can be suppressed by a comment on the reported line or
// the line directly above it:
//
//	//blobvet:allow <reason>
//
// An allow covers exactly one line: a comment trailing code covers its
// own line, and a comment alone on its line covers the next line.
// The reason is mandatory — a bare //blobvet:allow is itself reported —
// so every intentional exception to an engine invariant is auditable
// in-tree. Suppression is applied by the drivers, not by analyzers.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be a
	// valid Go identifier.
	Name string

	// Doc is the help text: one summary line, a blank line, then detail.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)

	// FactTypes lists the concrete Fact types the analyzer produces or
	// consumes. Registration is required for (gob) serialization under the
	// vet protocol.
	FactTypes []Fact

	// Requires lists analyzers whose facts this analyzer consumes. Drivers
	// run requirements first (on every package, so their facts exist for
	// the current package too, not only for dependencies) and make their
	// fact stream readable through Pass.AllObjectFacts.
	Requires []*Analyzer
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents one package to an analyzer and collects its output.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers install it.
	Report func(Diagnostic)

	// ImportObjectFact copies the fact of the given type previously
	// exported for obj (by this analyzer, in obj's package) into fact and
	// reports whether one existed. obj may belong to any package in the
	// import graph.
	ImportObjectFact func(obj types.Object, fact Fact) bool

	// ExportObjectFact associates fact with obj, which must belong to the
	// package being analyzed. Only package-level objects and methods of
	// package-level named types survive serialization.
	ExportObjectFact func(obj types.Object, fact Fact)

	// AllObjectFacts enumerates every object fact exported by the named
	// analyzer (which must appear in Analyzer.Requires, or be the analyzer
	// itself), across the current package and its whole import graph, in
	// deterministic order. Enumeration — rather than per-object import —
	// is what interprocedural consumers need: unexported functions of
	// dependency packages do not survive gc export data, so their facts
	// can only be reached by key, never through a types.Object.
	AllObjectFacts func(analyzer string) []ObjectFact
}

// An ObjectFact is one exported fact with its stable address: the
// defining package's import path and the object's ObjectPath within it.
type ObjectFact struct {
	PkgPath string
	ObjPath string
	Fact    Fact
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Fact is an analyzer-defined property of a types.Object, serialized
// across package boundaries. Implementations must be pointers to types
// with exported fields (they cross the vet protocol as gob).
type Fact interface {
	AFact() // marker method
}

// ObjectPath names a package-level object, or a method of a package-level
// named type, in a way that is stable across separate type-check sessions:
// "Name" for package-scope objects, "Type.Method" for methods. It returns
// "" for objects facts cannot follow (locals, fields, embedded forwards).
func ObjectPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name()
	}
	if f, ok := obj.(*types.Func); ok {
		sig := f.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Parent() == obj.Pkg().Scope() {
				return named.Obj().Name() + "." + f.Name()
			}
		}
	}
	return ""
}

// FindObject resolves an ObjectPath inside pkg, or nil.
func FindObject(pkg *types.Package, path string) types.Object {
	if pkg == nil || path == "" {
		return nil
	}
	tname, mname, isMethod := strings.Cut(path, ".")
	obj := pkg.Scope().Lookup(tname)
	if !isMethod {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == mname {
			return m
		}
	}
	return nil
}

// allowPrefix is the suppression marker. The directive form (no space
// after //) follows the Go convention for machine-readable comments.
const allowPrefix = "//blobvet:allow"

// Suppressions indexes //blobvet:allow comments of one package.
type Suppressions struct {
	// allowed maps "file:line" to the reasoned allow entries covering that
	// line: its own line for a trailing comment, the next line for a
	// comment alone on its line.
	allowed map[string][]*allowEntry
	// entries holds every reasoned allow in scan order.
	entries []*allowEntry
	// bare holds the positions of reason-less allow comments.
	bare []token.Pos
}

// allowEntry is one reasoned //blobvet:allow comment, tracked so the
// driver can audit allows that no longer suppress anything.
type allowEntry struct {
	pos  token.Pos
	test bool // in a _test.go file: exempt from the stale audit
	used bool // suppressed at least one diagnostic this run
}

// ScanSuppressions collects the allow comments of files. A reasoned allow
// that trails code covers its own line only; one alone on its line covers
// the next line only.
func ScanSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{allowed: map[string][]*allowEntry{}}
	for _, f := range files {
		var codeCol map[int]int
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				pos := fset.Position(c.Pos())
				if reason == "" {
					s.bare = append(s.bare, c.Pos())
					continue
				}
				e := &allowEntry{pos: c.Pos(), test: IsTestFile(fset, c.Pos())}
				s.entries = append(s.entries, e)
				if codeCol == nil {
					codeCol = firstCodeColumns(fset, f)
				}
				line := pos.Line + 1
				if col, ok := codeCol[pos.Line]; ok && col < pos.Column {
					line = pos.Line
				}
				key := fmt.Sprintf("%s:%d", pos.Filename, line)
				s.allowed[key] = append(s.allowed[key], e)
			}
		}
	}
	return s
}

// firstCodeColumns maps each line of f that holds code to the column of
// its first non-comment token, so a trailing comment (code before it on
// its line) can be told from a comment alone on its line.
func firstCodeColumns(fset *token.FileSet, f *ast.File) map[int]int {
	cols := map[int]int{}
	note := func(p token.Position) {
		if col, ok := cols[p.Line]; !ok || p.Column < col {
			cols[p.Line] = p.Column
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		note(fset.Position(n.Pos()))
		// The node's last character: a closing brace or parenthesis may
		// be the only code on its line.
		note(fset.Position(n.End() - 1))
		return true
	})
	return cols
}

// Suppressed reports whether a diagnostic at pos is covered by a reasoned
// allow comment (see ScanSuppressions for the one-line scope), and marks
// the covering allows used for the stale audit.
func (s *Suppressions) Suppressed(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	entries := s.allowed[fmt.Sprintf("%s:%d", p.Filename, p.Line)]
	for _, e := range entries {
		e.used = true
	}
	return len(entries) > 0
}

// Stale returns diagnostics for every reasoned allow (outside _test.go
// files) that suppressed nothing: a dead allow either outlived the code
// it excused or documents an invariant the analyzers no longer check —
// both rot the in-tree exception catalog. Call it after every analyzer
// has run.
func (s *Suppressions) Stale() []Diagnostic {
	var out []Diagnostic
	for _, e := range s.entries {
		if e.used || e.test {
			continue
		}
		out = append(out, Diagnostic{
			Pos:     e.pos,
			Message: "stale //blobvet:allow: no analyzer reports a diagnostic here anymore; delete the comment (or restore the invariant it excused)",
		})
	}
	return out
}

// BareAllows returns diagnostics for every reason-less //blobvet:allow:
// suppression without a recorded reason is itself an invariant violation.
func (s *Suppressions) BareAllows() []Diagnostic {
	var out []Diagnostic
	for _, pos := range s.bare {
		out = append(out, Diagnostic{
			Pos:     pos,
			Message: "//blobvet:allow requires a reason (//blobvet:allow <why this exception is sound>)",
		})
	}
	return out
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The blobvet analyzers check engine invariants; test files exercise the
// engine from outside them (fault injection, intentional leaks, wall-clock
// timing) and are exempt.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
