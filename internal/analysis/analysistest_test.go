package analysis

// This file is the project's miniature analysistest: each analyzer is
// run over a fixture package in testdata/src/<rule>/, loaded under an
// import path that satisfies the rule's package gating (the loader's
// LoadDir decouples directory from import path precisely for this).
// Fixture lines carry expectations as trailing comments:
//
//	code() // want `regexp matching the message`
//
// Multiple backquoted regexps on one line expect multiple diagnostics
// on that line. The test fails symmetrically: on any diagnostic with
// no matching want, and on any want with no matching diagnostic — so
// every rule is proven both to fire on its seeded violations and to
// stay quiet on the adjacent compliant code.

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testLoader is shared across the analyzer tests: type-checking the
// standard library from GOROOT source is the dominant cost, and one
// loader amortizes it. Fixture import paths are all distinct from the
// real packages', so memoization never aliases a fixture to real code.
var testLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader("")
})

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantArgRe = regexp.MustCompile("`([^`]+)`")

// collectWants parses `// want` expectations from the fixture's
// comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: // want with no backquoted regexp", pos.Filename, pos.Line)
				}
				for _, m := range args {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// testAnalyzer loads the fixture in dir under the given import path,
// runs exactly one analyzer (suppressions included, so fixtures can
// also prove //gfvet:allow works), and reconciles diagnostics against
// the fixture's want expectations.
func testAnalyzer(t *testing.T, a *Analyzer, dir, path string) {
	t.Helper()
	loader, err := testLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir, path)
	if err != nil {
		t.Fatalf("load %s as %s: %v", dir, path, err)
	}
	diags, err := Run([]*Analyzer{a}, []*Package{pkg})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	wants := collectWants(t, pkg.Fset, pkg.Files)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s: %s", pos, d.Rule, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.re)
		}
	}
}

func TestSentinelWrap(t *testing.T) {
	testAnalyzer(t, SentinelWrap, "testdata/src/sentinelwrap", "groupform/testfixtures/internal/swtest")
}

func TestLeaseRelease(t *testing.T) {
	testAnalyzer(t, LeaseRelease, "testdata/src/leaserelease", "groupform/testfixtures/internal/server")
}

func TestCtxCadence(t *testing.T) {
	testAnalyzer(t, CtxCadence, "testdata/src/ctxcadence", "groupform/testfixtures/internal/opt")
}

func TestHotPathAlloc(t *testing.T) {
	testAnalyzer(t, HotPathAlloc, "testdata/src/hotpathalloc", "groupform/testfixtures/internal/hottest")
}
