// Package analysis is the project's static-analysis framework: a
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Diagnostic) plus a module-aware package
// loader, built so the correctness contracts the runtime tests pin
// one-at-a-time — sentinel-wrapped errors, paired scratch leases,
// cancellation cadence and the zero-alloc roster — are
// machine-checked on every build via cmd/gfvet.
//
// The x/tools dependency is deliberately absent: the module is
// dependency-free and must stay buildable offline, so the framework
// type-checks the tree itself with go/parser + go/types and imports
// the standard library from GOROOT source (see load.go). Analyzer
// authors get the same contract as x/tools: a Pass with type
// information, a Report callback, and per-rule testdata packages with
// `// want` expectations (see analysistest_test.go).
//
// # Suppression
//
// A diagnostic is suppressed by an annotation on the flagged line or
// the line directly above it:
//
//	//gfvet:allow <rule>[,<rule>...] -- <justification>
//
// The justification is mandatory; a bare allow is itself reported.
// Suppressions are the escape hatch for the rare site where the rule
// is wrong by design (for example the parallel fan-out branches of a
// zero-alloc function, which allocate their own escaping memory on
// purpose); the `--` clause keeps the reason next to the exemption.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named, independently testable rule.
type Analyzer struct {
	// Name identifies the rule in diagnostics and in
	// //gfvet:allow annotations. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph contract the rule enforces.
	Doc string
	// Run inspects one package and reports violations via
	// pass.Report/Reportf. It is called once per loaded package;
	// rules that only apply to some packages gate on pass.Path.
	Run func(pass *Pass) error
}

// Analyzers is the full gfvet suite in reporting order.
var Analyzers = []*Analyzer{
	SentinelWrap,
	LeaseRelease,
	CtxCadence,
	HotPathAlloc,
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test files, with comments.
	Files []*ast.File
	// Path is the package's import path (e.g.
	// "groupform/internal/server").
	Path string
	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info

	report func(Diagnostic)
}

// Report records one violation.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records one violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string // filled by the runner
	Message string
}

// allowRe matches a well-formed suppression annotation. The
// justification after "--" is mandatory.
var allowRe = regexp.MustCompile(`^//gfvet:allow ([a-z][a-z0-9]*(?:,[a-z][a-z0-9]*)*) -- \S`)

// allowAnyRe matches anything that looks like an attempted allow, so
// malformed ones (missing rule list or justification) are reported
// instead of silently ignored.
var allowAnyRe = regexp.MustCompile(`^//gfvet:allow`)

// suppressions maps file -> line -> set of allowed rule names.
type suppressions map[string]map[int]map[string]bool

// collectSuppressions scans every comment in files for
// //gfvet:allow annotations. A well-formed allow suppresses matching
// diagnostics on its own line and on the line below (so it can sit
// either at the end of the flagged line or on its own line above).
// Malformed allows are returned as diagnostics in their own right.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressions, []Diagnostic) {
	sup := suppressions{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !allowAnyRe.MatchString(text) {
					continue
				}
				m := allowRe.FindStringSubmatch(text)
				if m == nil {
					bad = append(bad, Diagnostic{
						Pos:  c.Pos(),
						Rule: "gfvet",
						Message: "malformed //gfvet:allow annotation: want " +
							`"//gfvet:allow <rule>[,<rule>] -- <justification>"`,
					})
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					sup[pos.Filename] = byLine
				}
				for _, rule := range strings.Split(m[1], ",") {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if byLine[line] == nil {
							byLine[line] = map[string]bool{}
						}
						byLine[line][rule] = true
					}
				}
			}
		}
	}
	return sup, bad
}

// allows reports whether rule is suppressed at pos.
func (s suppressions) allows(fset *token.FileSet, pos token.Pos, rule string) bool {
	p := fset.Position(pos)
	return s[p.Filename][p.Line][rule]
}

// Run applies every analyzer to every package, resolves
// suppressions, and returns the surviving diagnostics sorted by
// position. Malformed //gfvet:allow annotations are themselves
// diagnostics, so a suppression cannot silently rot.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var out []Diagnostic
	seenFile := map[string]bool{}
	for _, pkg := range pkgs {
		sup, bad := collectSuppressions(pkg.Fset, pkg.Files)
		// A package can be loaded once but its files seen via
		// several patterns; dedup malformed-allow reports by file.
		for _, d := range bad {
			f := pkg.Fset.Position(d.Pos).Filename
			if !seenFile[f+d.Message] {
				seenFile[f+d.Message] = true
				out = append(out, d)
			}
		}
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				if sup.allows(pkg.Fset, d.Pos, a.Name) {
					continue
				}
				d.Rule = a.Name
				out = append(out, d)
			}
		}
	}
	sortDiagnostics(out, pkgs)
	return out, nil
}

func sortDiagnostics(ds []Diagnostic, pkgs []*Package) {
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Rule < ds[j].Rule
	})
}
