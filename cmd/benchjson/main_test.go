package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"groupform/internal/benchparse"
)

const sample = `pkg: groupform
BenchmarkGRD/LM-MIN-8  5  1200 ns/op  64 B/op  2 allocs/op
PASS
`

func TestRunStdinStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var rep benchparse.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkGRD/LM-MIN" {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunFiles(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	outPath := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", in, "-out", outPath}, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchparse.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks[0].AllocsPerOp != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunRejectsEmpty(t *testing.T) {
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("want error for input without benchmark lines")
	}
}

const oldSample = `pkg: groupform
BenchmarkGRD/LM-MIN-8  5  1200 ns/op  64 B/op  2 allocs/op
PASS
`

const regressedSample = `pkg: groupform
BenchmarkGRD/LM-MIN-8  5  2400 ns/op  64 B/op  2 allocs/op
PASS
`

// writeJSON converts bench text to a BENCH json file via run itself.
func writeJSON(t *testing.T, dir, name, text string) string {
	t.Helper()
	in := filepath.Join(dir, name+".txt")
	out := filepath.Join(dir, name+".json")
	if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", in, "-out", out}, nil, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareModeOK(t *testing.T) {
	dir := t.TempDir()
	oldJSON := writeJSON(t, dir, "old", oldSample)
	newJSON := writeJSON(t, dir, "new", sample)
	var out bytes.Buffer
	if err := run([]string{"-compare", oldJSON, newJSON}, nil, &out); err != nil {
		t.Fatalf("identical runs must pass the guard: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "OK:") {
		t.Fatalf("missing OK summary:\n%s", out.String())
	}
}

func TestCompareModeRegression(t *testing.T) {
	dir := t.TempDir()
	oldJSON := writeJSON(t, dir, "old", oldSample)
	newJSON := writeJSON(t, dir, "new", regressedSample)
	var out bytes.Buffer
	err := run([]string{"-compare", oldJSON, newJSON}, nil, &out)
	if err == nil {
		t.Fatalf("2x ns/op must trip the guard\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "regress") {
		t.Fatalf("err = %v, want a regression message", err)
	}
	// A wider threshold admits the same delta.
	if err := run([]string{"-compare", "-ns-threshold", "1.5", oldJSON, newJSON}, nil, &bytes.Buffer{}); err != nil {
		t.Fatalf("threshold 150%% must pass: %v", err)
	}
}

func TestCompareModeUsage(t *testing.T) {
	if err := run([]string{"-compare", "only-one.json"}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("one argument must be a usage error")
	}
}

// TestRunRecordsNproc: the converted report's meta carries the host's
// CPU count beside the preamble's cpu line.
func TestRunRecordsNproc(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("cpu: Test CPU\n"+sample), &out); err != nil {
		t.Fatal(err)
	}
	var rep benchparse.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Meta["nproc"], strconv.Itoa(runtime.NumCPU()); got != want {
		t.Fatalf("meta nproc = %q, want %q", got, want)
	}
	if rep.Meta["cpu"] != "Test CPU" {
		t.Fatalf("meta cpu = %q, want the preamble's", rep.Meta["cpu"])
	}
}

// TestCompareModeHostLine: -compare prints one host line exactly when
// the reports' cpu or nproc differ, and the line never changes the
// verdict.
func TestCompareModeHostLine(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu, nproc string, ns float64) string {
		rep := benchparse.Report{
			Meta:       map[string]string{"cpu": cpu, "nproc": nproc},
			Benchmarks: []benchparse.Benchmark{{Name: "BenchmarkGRD/LM-MIN", Procs: 1, Iterations: 5, NsPerOp: ns, AllocsPerOp: 2}},
		}
		if nproc == "" {
			delete(rep.Meta, "nproc")
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", "CPU A", "2", 1200)
	for _, tc := range []struct {
		name, cpu, nproc string
		ns               float64
		wantLine, wantOK bool
	}{
		{"same host", "CPU A", "2", 1200, false, true},
		{"other cpu", "CPU B", "2", 1200, true, true},
		{"other nproc", "CPU A", "4", 1200, true, true},
		{"unrecorded nproc", "CPU A", "", 1200, true, true},
		{"same host regressed", "CPU A", "2", 2400, false, false},
		{"other host regressed", "CPU B", "1", 2400, true, false},
	} {
		var out bytes.Buffer
		err := run([]string{"-compare", base, write(tc.name, tc.cpu, tc.nproc, tc.ns)}, nil, &out)
		want := 0
		if tc.wantLine {
			want = 1
		}
		if got := strings.Count(out.String(), "HOST DIFFERS"); got != want {
			t.Errorf("%s: %d host lines, want %d\n%s", tc.name, got, want, out.String())
		}
		if (err == nil) != tc.wantOK {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.wantOK)
		}
	}
}
