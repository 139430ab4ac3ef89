package benchparse

import (
	"fmt"
	"io"
	"sort"
)

// DefaultNsThreshold is Compare's default relative ns/op band: wall
// time carries machine noise. Allocation counts get a small absolute
// slack instead, max(1, old/1000) and exact for a zero-alloc baseline
// (see allocsSlack).
const DefaultNsThreshold = 0.15

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name string
	Old  Benchmark
	New  Benchmark
	// NsRatio is new/old ns/op (0 when old is 0).
	NsRatio float64
	// NsRegressed and AllocsRegressed mark threshold violations.
	NsRegressed     bool
	AllocsRegressed bool
}

// Regressed reports whether the benchmark violates either bound.
func (d Delta) Regressed() bool { return d.NsRegressed || d.AllocsRegressed }

// Comparison is the result of comparing two benchmark reports.
type Comparison struct {
	// Deltas holds every benchmark present in both reports, in the
	// new report's order.
	Deltas []Delta
	// OnlyOld lists baseline benchmarks missing from the new report
	// (renamed or deleted — worth human eyes, not an automatic
	// failure).
	OnlyOld []string
	// OnlyNew lists benchmarks with no baseline yet.
	OnlyNew []string
}

// Regressions returns the regressed deltas.
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regressed() {
			out = append(out, d)
		}
	}
	return out
}

// key identifies a benchmark across reports: the name alone. Procs is
// deliberately NOT part of the identity — the baseline may have been
// captured at a different GOMAXPROCS than the run under test (a 1-CPU
// container vs a 4-vCPU CI runner), and keying on it would leave the
// guard with zero common benchmarks. When one run holds several procs
// variants of a name (`-cpu 1,4`), collapse folds them to the
// minimum like any other repeat.
func key(b Benchmark) string { return b.Name }

// collapse folds `-count N` repeats of one benchmark into a single
// entry holding the per-benchmark minimum of ns/op and allocs/op —
// the standard noise-robust statistic: the minimum is the run least
// disturbed by scheduler and cache interference, while allocation
// counts are deterministic and identical across repeats anyway.
// Input order of first appearance is preserved.
func collapse(benches []Benchmark) []Benchmark {
	idx := make(map[string]int, len(benches))
	out := make([]Benchmark, 0, len(benches))
	for _, b := range benches {
		k := key(b)
		i, ok := idx[k]
		if !ok {
			idx[k] = len(out)
			out = append(out, b)
			continue
		}
		if b.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = b.NsPerOp
		}
		if b.AllocsPerOp < out[i].AllocsPerOp {
			out[i].AllocsPerOp = b.AllocsPerOp
		}
		if b.BytesPerOp < out[i].BytesPerOp {
			out[i].BytesPerOp = b.BytesPerOp
		}
	}
	return out
}

// allocsSlack is the tolerated allocs/op increase for a benchmark
// whose baseline already allocates: max(1, old/1000). Benchmarks
// riding a sync.Pool (the safe Form path, the server's scratch pool)
// or a parallel fan-out have alloc counts that wobble by a hair with
// GC and scheduling timing — ±1 on serial pooled paths, a few parts
// per thousand on worker fan-outs — so a strict "any increase" rule
// flags noise, not code. A zero-alloc baseline stays exact: 0 -> 1 is
// always a real regression (it is the steady-state contract).
func allocsSlack(old float64) float64 {
	if old == 0 {
		return 0
	}
	if s := old / 1000; s > 1 {
		return s
	}
	return 1
}

// Compare matches the two reports' benchmarks by name and flags
// regressions: ns/op worse than old*(1+nsThreshold), or allocs/op
// beyond the baseline plus allocsSlack (exact for zero-alloc
// baselines). Repeated entries per name (`go test -count N`) are
// collapsed to their minimum on both sides first. nsThreshold <= 0
// selects DefaultNsThreshold.
func Compare(old, new *Report, nsThreshold float64) *Comparison {
	if nsThreshold <= 0 {
		nsThreshold = DefaultNsThreshold
	}
	oldBenches := collapse(old.Benchmarks)
	newBenches := collapse(new.Benchmarks)
	byKey := make(map[string]Benchmark, len(oldBenches))
	for _, b := range oldBenches {
		byKey[key(b)] = b
	}
	c := &Comparison{}
	seen := make(map[string]bool, len(newBenches))
	for _, nb := range newBenches {
		k := key(nb)
		seen[k] = true
		ob, ok := byKey[k]
		if !ok {
			c.OnlyNew = append(c.OnlyNew, nb.Name)
			continue
		}
		d := Delta{Name: nb.Name, Old: ob, New: nb}
		if ob.NsPerOp > 0 {
			d.NsRatio = nb.NsPerOp / ob.NsPerOp
			d.NsRegressed = nb.NsPerOp > ob.NsPerOp*(1+nsThreshold)
		}
		d.AllocsRegressed = nb.AllocsPerOp > ob.AllocsPerOp+allocsSlack(ob.AllocsPerOp)
		c.Deltas = append(c.Deltas, d)
	}
	for _, ob := range oldBenches {
		if !seen[key(ob)] {
			c.OnlyOld = append(c.OnlyOld, ob.Name)
		}
	}
	sort.Strings(c.OnlyOld)
	sort.Strings(c.OnlyNew)
	return c
}

// WriteText renders the comparison as the human-readable table the CI
// log shows, regressions flagged with "REGRESSION".
func (c *Comparison) WriteText(w io.Writer) {
	for _, d := range c.Deltas {
		flag := ""
		switch {
		case d.NsRegressed && d.AllocsRegressed:
			flag = "  REGRESSION(ns/op,allocs/op)"
		case d.NsRegressed:
			flag = "  REGRESSION(ns/op)"
		case d.AllocsRegressed:
			flag = "  REGRESSION(allocs/op)"
		}
		fmt.Fprintf(w, "%-60s ns/op %12.0f -> %12.0f (%+6.1f%%)  allocs/op %6.0f -> %6.0f%s\n",
			d.Name, d.Old.NsPerOp, d.New.NsPerOp, (d.NsRatio-1)*100, d.Old.AllocsPerOp, d.New.AllocsPerOp, flag)
	}
	for _, name := range c.OnlyNew {
		fmt.Fprintf(w, "%-60s (no baseline)\n", name)
	}
	for _, name := range c.OnlyOld {
		fmt.Fprintf(w, "%-60s (missing from new run — renamed or deleted?)\n", name)
	}
}
