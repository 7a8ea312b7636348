package driver_test

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blobdb/internal/analysis"
	"blobdb/internal/analysis/driver"
)

// calltrap flags every call to a function literally named "bad". It gives
// the suppression tests a diagnostic source with no engine dependencies.
var calltrap = &analysis.Analyzer{
	Name: "calltrap",
	Doc:  "flags calls to functions named bad (test analyzer)",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
					pass.Reportf(call.Pos(), "call to bad")
				}
				return true
			})
		}
		return nil, nil
	},
}

func loadSnippet(t *testing.T, src string) *driver.Package {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "p.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := driver.NewSourceLoader(token.NewFileSet(), nil)
	pkg, err := loader.Load("p", dir, []string{"p.go"})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func run(t *testing.T, pkg *driver.Package) []driver.Diag {
	t.Helper()
	diags, err := driver.RunPackage(pkg, []*analysis.Analyzer{calltrap}, driver.NewFacts())
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// A reasoned //blobvet:allow suppresses diagnostics on exactly one line:
// the line below it when it stands alone, its own line when it trails code.
func TestAllowSuppression(t *testing.T) {
	pkg := loadSnippet(t, `package p

func bad() {}

func f() {
	bad()
	//blobvet:allow exercising the suppression scope
	bad()
	bad() //blobvet:allow same-line trailing comment form

	bad()
}
`)
	diags := run(t, pkg)
	var lines []int
	for _, d := range diags {
		if d.Analyzer != "calltrap" {
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
			continue
		}
		lines = append(lines, d.Pos.Line)
	}
	// Lines 8 (under the reasoned comment) and 9 (trailing comment form)
	// are allowed, while lines 6 and 11 must still be reported.
	want := []int{6, 11}
	if len(lines) != len(want) {
		t.Fatalf("got diagnostics on lines %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("got diagnostics on lines %v, want %v", lines, want)
		}
	}
}

// A trailing allow covers its own line only: it must not hide a
// diagnostic on the line below, whatever the last token of its line. An
// allow trailing a line with nothing to suppress is stale.
func TestTrailingAllowCoversOnlyItsLine(t *testing.T) {
	pkg := loadSnippet(t, `package p

func bad() {}

func f() {
	bad() //blobvet:allow trailing form covers this line only
	bad()
	if true { //blobvet:allow trailing an opening brace
		bad()
	}
}
`)
	diags := run(t, pkg)
	var calls, stale []int
	for _, d := range diags {
		switch d.Analyzer {
		case "calltrap":
			calls = append(calls, d.Pos.Line)
		case "allow":
			stale = append(stale, d.Pos.Line)
		}
	}
	if len(calls) != 2 || calls[0] != 7 || calls[1] != 9 {
		t.Errorf("calltrap diagnostics on lines %v, want [7 9]", calls)
	}
	if len(stale) != 1 || stale[0] != 8 {
		t.Errorf("stale allows on lines %v, want [8]", stale)
	}
}

// An allow comment with no reason does not suppress anything and is
// itself reported, so exceptions cannot silently accumulate unexplained.
func TestBareAllow(t *testing.T) {
	pkg := loadSnippet(t, `package p

func bad() {}

func f() {
	//blobvet:allow
	bad()
}
`)
	diags := run(t, pkg)
	var gotAllow, gotCall bool
	for _, d := range diags {
		switch d.Analyzer {
		case "allow":
			gotAllow = true
			if !strings.Contains(d.Message, "requires a reason") {
				t.Errorf("bare allow message = %q, want it to demand a reason", d.Message)
			}
			if d.Pos.Line != 6 {
				t.Errorf("bare allow reported on line %d, want 6", d.Pos.Line)
			}
		case "calltrap":
			gotCall = true
			if d.Pos.Line != 7 {
				t.Errorf("call diagnostic on line %d, want 7 (bare allow must not suppress)", d.Pos.Line)
			}
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}
	if !gotAllow {
		t.Error("reason-less //blobvet:allow was not reported")
	}
	if !gotCall {
		t.Error("diagnostic under a bare allow was suppressed; bare allows must not suppress")
	}
}

// Whitespace-only "reasons" count as bare.
func TestAllowBlankReasonIsBare(t *testing.T) {
	pkg := loadSnippet(t, `package p

func bad() {}

func f() {
	//blobvet:allow   `+`
	bad()
}
`)
	diags := run(t, pkg)
	var analyzersSeen []string
	for _, d := range diags {
		analyzersSeen = append(analyzersSeen, d.Analyzer)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics (%v), want bare-allow report plus unsuppressed call", len(diags), analyzersSeen)
	}
}
