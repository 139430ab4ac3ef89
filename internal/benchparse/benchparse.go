// Package benchparse parses `go test -bench` text output into a
// structured report, the bridge between the benchmark suite and the
// perf-trajectory artifacts CI uploads (BENCH_<pr>.json). It
// understands the standard line shape
//
//	BenchmarkName/sub/case-8  3  18694763 ns/op  4069554 B/op  52671 allocs/op
//
// plus the `goos:`/`goarch:`/`pkg:`/`cpu:` preamble, and tolerates
// interleaved non-benchmark output (test logs, PASS/ok trailers).
package benchparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"groupform/internal/gferr"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark's full name with the trailing
	// -GOMAXPROCS suffix stripped (it is recorded in Procs).
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix, 1 if absent.
	Procs int `json:"procs"`
	// Iterations is b.N for the measured run.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp mirror the standard units;
	// zero when the line omitted them.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any further unit -> value pairs (custom
	// b.ReportMetric units, MB/s, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is a full parsed benchmark run.
type Report struct {
	// Meta carries the preamble key/value lines (goos, goarch, pkg,
	// cpu); cmd/benchjson adds nproc, the converting host's CPU count.
	Meta map[string]string `json:"meta,omitempty"`
	// Benchmarks lists results in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// metaKeys are the preamble keys worth keeping.
var metaKeys = map[string]bool{"goos": true, "goarch": true, "pkg": true, "cpu": true}

// Parse reads `go test -bench` output. Non-benchmark lines are
// skipped; a line that starts with "Benchmark" but fails to parse is
// an error (silent drops would corrupt the perf trajectory).
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if key, val, ok := strings.Cut(line, ":"); ok && metaKeys[key] {
			if rep.Meta == nil {
				rep.Meta = make(map[string]string)
			}
			rep.Meta[key] = strings.TrimSpace(val)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchparse: read: %w", err)
	}
	return rep, nil
}

func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, gferr.BadConfigf("benchparse: short benchmark line %q", line)
	}
	b := Benchmark{Name: fields[0], Procs: 1}
	// Split the -GOMAXPROCS suffix off the last name segment.
	if cut := strings.LastIndexByte(b.Name, '-'); cut > 0 {
		if p, err := strconv.Atoi(b.Name[cut+1:]); err == nil && p > 0 && !strings.ContainsRune(b.Name[cut+1:], '/') {
			b.Name = b.Name[:cut]
			b.Procs = p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("benchparse: iterations in %q: %w", line, err)
	}
	b.Iterations = iters
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, gferr.BadConfigf("benchparse: unpaired measurement in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("benchparse: value %q in %q: %w", rest[i], line, err)
		}
		switch unit := rest[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}
