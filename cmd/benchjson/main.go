// Command benchjson converts `go test -bench` text output into the
// structured JSON the CI perf-trajectory job uploads (BENCH_<n>.json),
// and diffs two such files as the CI bench-regression guard.
//
// Usage:
//
//	go test -run '^$' -bench 'GRD|Engine|TopK' -benchmem -benchtime 1x . \
//	    | benchjson -out BENCH_4.json
//	benchjson -in bench.txt -out BENCH_4.json
//	benchjson -compare bench/BENCH_3.json BENCH_4.json
//
// The JSON's meta adds nproc, the converting host's runtime.NumCPU, to
// the preamble's goos, goarch, pkg and cpu.
//
// In -compare mode the two positional arguments are the committed
// baseline and the fresh run; the exit status is 1 when any benchmark
// present in both regresses by more than -ns-threshold in ns/op
// (default 15%) or by more than max(1, old/1000) in allocs/op (exact
// for a zero-alloc baseline). A line before the table notes when the
// two reports' cpu or nproc differ, as ns/op then measures the host too.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"

	"groupform/internal/benchparse"
)

// errRegression marks a guard failure (as opposed to a usage or I/O
// error); both exit 1, but tests distinguish them.
var errRegression = errors.New("benchmark regression")

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		in          = fs.String("in", "", "benchmark text input (default stdin)")
		out         = fs.String("out", "", "JSON output path (default stdout)")
		compare     = fs.Bool("compare", false, "compare two BENCH json files: -compare old.json new.json")
		nsThreshold = fs.Float64("ns-threshold", benchparse.DefaultNsThreshold, "relative ns/op regression budget in -compare mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two arguments: old.json new.json")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *nsThreshold, stdout)
	}
	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rep, err := benchparse.Parse(r)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found")
	}
	if rep.Meta == nil {
		rep.Meta = make(map[string]string)
	}
	rep.Meta["nproc"] = strconv.Itoa(runtime.NumCPU())
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out != "" {
		return os.WriteFile(*out, data, 0o644)
	}
	_, err = stdout.Write(data)
	return err
}

// runCompare loads the two reports, prints the delta table, and
// returns errRegression when the guard trips.
func runCompare(oldPath, newPath string, nsThreshold float64, stdout io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	c := benchparse.Compare(oldRep, newRep, nsThreshold)
	if len(c.Deltas) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	if o, n := oldRep.Meta, newRep.Meta; o["cpu"] != n["cpu"] || o["nproc"] != n["nproc"] {
		fmt.Fprintf(stdout, "HOST DIFFERS: cpu %q -> %q, nproc %q -> %q; ns/op deltas include the host change\n",
			o["cpu"], n["cpu"], o["nproc"], n["nproc"])
	}
	c.WriteText(stdout)
	if regs := c.Regressions(); len(regs) > 0 {
		return fmt.Errorf("%w: %d of %d benchmarks regressed (>%g%% ns/op, or allocs/op beyond the max(1, 0.1%%) jitter slack) vs %s",
			errRegression, len(regs), len(c.Deltas), nsThreshold*100, oldPath)
	}
	fmt.Fprintf(stdout, "OK: %d benchmarks within budget vs %s\n", len(c.Deltas), oldPath)
	return nil
}

func loadReport(path string) (*benchparse.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &benchparse.Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return rep, nil
}
