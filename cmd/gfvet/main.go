// Command gfvet runs the project's static-analysis suite: the custom
// analyzers of internal/analysis that mechanically enforce the
// engine's correctness contracts (sentinel-wrapped errors, paired
// scratch leases, cancellation cadence in hot loops and the
// zero-alloc roster). It is the multichecker CI runs alongside go vet:
//
//	go run ./cmd/gfvet ./...
//
// Diagnostics print as file:line:col: rule: message; any diagnostic
// makes the exit status 1. Individual sites are suppressed — with a
// mandatory justification — via
//
//	//gfvet:allow <rule>[,<rule>] -- <justification>
//
// on the flagged line or the line above it. -rules narrows the run
// to a comma-separated subset; -list prints the suite.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"groupform/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("gfvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated rule subset to run (default: all)")
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: gfvet [-rules a,b] [-list] [packages]\n\npackages default to ./...; patterns support dir and dir/... forms.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectRules(*rules)
	if err != nil {
		fmt.Fprintln(stderr, "gfvet:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader("")
	if err != nil {
		fmt.Fprintln(stderr, "gfvet:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "gfvet:", err)
		return 2
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "gfvet:", err)
		return 2
	}
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		fmt.Fprintf(stdout, "%s: %s: %s\n", pos, d.Rule, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "gfvet: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}

func selectRules(spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return analysis.Analyzers, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analysis.Analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (run gfvet -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
