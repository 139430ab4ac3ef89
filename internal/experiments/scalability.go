package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/semantics"
	"groupform/internal/solver"
	"groupform/internal/synth"
)

// scaleParams are the scalability-experiment defaults ("number of
// users = 100,000, number of items = 10,000, number of groups = 10,
// k = 5 and Min-aggregation"), shrunk under ScaleSmall.
type scaleParams struct {
	n, m, l, k int
	users      []int
	items      []int
	groups     []int
	ks         []int
	maxIter    int // clustering iteration cap for the baseline
}

func scaleDefaults(s Scale) scaleParams {
	if s == ScalePaper {
		return scaleParams{
			n: 100000, m: 10000, l: 10, k: 5,
			users:   []int{1000, 10000, 100000, 200000},
			items:   []int{10000, 25000, 50000, 100000},
			groups:  []int{10, 100, 1000, 10000},
			ks:      []int{5, 25, 125, 625},
			maxIter: 20,
		}
	}
	return scaleParams{
		n: 600, m: 300, l: 10, k: 5,
		users:   []int{200, 400, 800},
		items:   []int{150, 300, 600},
		groups:  []int{5, 10, 20},
		ks:      []int{5, 10, 20},
		maxIter: 10,
	}
}

// scaleDataset generates the sparse Yahoo!-like workload used by all
// runtime experiments.
func scaleDataset(n, m int, seed int64) (*dataset.Dataset, error) {
	return synth.YahooLike(n, m, seed)
}

// timeMS measures f's wall-clock time in milliseconds.
func timeMS(f func() error) (float64, error) {
	start := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Microseconds()) / 1000.0, nil
}

// runtimeSweep measures the configured primary algorithm (Options.
// Algo, "grd" by default) and the k-means baseline across one
// parameter sweep. Both run through the solver registry, so any
// registered algorithm can be timed: `experiments -algo ls -exp f4a`
// sweeps local search where the paper sweeps GRD.
func runtimeSweep(o Options, id, title, xlabel string, sem semantics.Semantics,
	agg semantics.Aggregation, xs []int,
	mk func(x int, p scaleParams) (n, m, l, k int)) (Exhibit, error) {

	algo, err := solver.Resolve(o.algo())
	if err != nil {
		return Exhibit{}, err
	}
	// The exact references cannot meet any sweep point (exact stops
	// at 18 users, ip at K=1, bb at adversarial-free toy sizes), so
	// refuse them with a clear message instead of erroring midway
	// through the first point.
	switch algo {
	case "exact", "bb", "ip":
		return Exhibit{}, gferr.BadConfigf(
			"experiments: -algo %s cannot run the runtime sweeps (the sweep sizes are beyond its reach); pick grd, a baseline-*, or ls", algo)
	}
	primaryIsBaseline := strings.HasPrefix(algo, "baseline-")
	// primaryFeasible bounds the -algo-selected primary's work the
	// same way the built-in kmeans series is bounded, but per cost
	// model: full Kendall medoids materializes an O(n^2) distance
	// matrix (the paper stops it at quality scale), CLARA is linear
	// in n*l with a heavy per-distance constant, and Lloyd's k-means
	// is O(n*l*d) per iteration. Infeasible points render as "-",
	// matching how the paper omits OPT beyond 200 users.
	primaryFeasible := func(n, l int) bool {
		switch algo {
		case "baseline-kendall":
			return n <= 2_000
		case "baseline-clara":
			return n*l <= 1_000_000
		case "baseline-kmeans":
			return n*l <= 100_000_000
		}
		return true
	}
	p := scaleDefaults(o.Scale)
	cfg := core.Config{Semantics: sem, Aggregation: agg, Workers: o.Workers}
	semAgg := cfg.AlgorithmName()[len("GRD-"):]
	primaryName := "GRD-" + semAgg
	if algo != "grd" {
		primaryName = strings.ToUpper(algo) + "-" + semAgg
	}
	ex := Exhibit{ID: id, Title: title, XLabel: xlabel, YLabel: "Run time (ms)"}
	grdS := Series{Name: primaryName}
	baseS := Series{Name: "Baseline-" + semAgg}
	ctx := context.Background()
	for _, x := range xs {
		n, m, l, k := mk(x, p)
		ds, err := scaleDataset(n, m, o.Seed+int64(x))
		if err != nil {
			return Exhibit{}, err
		}
		c := cfg
		c.K, c.L = k, l
		// The clustering iteration cap adapts downward before the
		// feasibility bounds cut in, and applies to whichever series
		// is a clustering baseline — including a baseline-* primary
		// picked with -algo, which would otherwise run the uncapped
		// default of 100 iterations and contradict the secondary
		// curve for the same algorithm.
		maxIter := p.maxIter
		if n*l > 10_000_000 {
			maxIter = 3
		}
		if primaryFeasible(n, l) {
			primaryOpts := []solver.Option{solver.WithSeed(o.Seed), solver.WithWorkers(o.Workers)}
			if primaryIsBaseline {
				primaryOpts = append(primaryOpts, solver.WithMaxIter(maxIter))
			}
			primary, err := solver.New(algo, primaryOpts...)
			if err != nil {
				return Exhibit{}, err
			}
			gt, err := timeMS(func() error {
				_, err := primary.Solve(ctx, ds, c)
				return err
			})
			if err != nil {
				return Exhibit{}, err
			}
			grdS.Points = append(grdS.Points, Point{float64(x), gt})
		}
		// Lloyd assignment is O(n*l*d) per iteration; at the paper's
		// most extreme point (100k users, 10k groups) even a single
		// iteration takes hours on one core, so the secondary series
		// is omitted beyond its work bound.
		if n*l > 100_000_000 {
			continue
		}
		kmeans, err := solver.New("baseline-kmeans", solver.WithSeed(o.Seed), solver.WithMaxIter(maxIter))
		if err != nil {
			return Exhibit{}, err
		}
		bt, err := timeMS(func() error {
			_, err := kmeans.Solve(ctx, ds, c)
			return err
		})
		if err != nil {
			return Exhibit{}, err
		}
		baseS.Points = append(baseS.Points, Point{float64(x), bt})
	}
	ex.Series = []Series{grdS, baseS}
	return ex, nil
}

// Figure4a: LM runtime vs number of users.
func Figure4a(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F4a", "Run time vs #users (Yahoo!-like, LM-Min)", "#users",
		semantics.LM, semantics.Min, p.users,
		func(x int, p scaleParams) (int, int, int, int) { return x, p.m, p.l, p.k })
}

// Figure4b: LM runtime vs number of items.
func Figure4b(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F4b", "Run time vs #items (Yahoo!-like, LM-Min)", "#items",
		semantics.LM, semantics.Min, p.items,
		func(x int, p scaleParams) (int, int, int, int) { return p.n, x, p.l, p.k })
}

// Figure4c: LM runtime vs number of groups.
func Figure4c(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F4c", "Run time vs #groups (Yahoo!-like, LM-Min)", "#groups",
		semantics.LM, semantics.Min, p.groups,
		func(x int, p scaleParams) (int, int, int, int) { return p.n, p.m, x, p.k })
}

// Figure5a: runtime vs k, LM with Min aggregation.
func Figure5a(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F5a", "Run time vs top-k (Yahoo!-like, LM-Min)", "top-k",
		semantics.LM, semantics.Min, p.ks,
		func(x int, p scaleParams) (int, int, int, int) { return p.n, p.m, p.l, x })
}

// Figure5b: runtime vs k, LM with Sum aggregation.
func Figure5b(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F5b", "Run time vs top-k (Yahoo!-like, LM-Sum)", "top-k",
		semantics.LM, semantics.Sum, p.ks,
		func(x int, p scaleParams) (int, int, int, int) { return p.n, p.m, p.l, x })
}

// Figure5c: runtime vs k, AV with Min aggregation.
func Figure5c(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F5c", "Run time vs top-k (Yahoo!-like, AV-Min)", "top-k",
		semantics.AV, semantics.Min, p.ks,
		func(x int, p scaleParams) (int, int, int, int) { return p.n, p.m, p.l, x })
}

// Figure5d: runtime vs k, AV with Sum aggregation.
func Figure5d(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F5d", "Run time vs top-k (Yahoo!-like, AV-Sum)", "top-k",
		semantics.AV, semantics.Sum, p.ks,
		func(x int, p scaleParams) (int, int, int, int) { return p.n, p.m, p.l, x })
}

// Figure6a: AV runtime vs number of users.
func Figure6a(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F6a", "Run time vs #users (Yahoo!-like, AV-Min)", "#users",
		semantics.AV, semantics.Min, p.users,
		func(x int, p scaleParams) (int, int, int, int) { return x, p.m, p.l, p.k })
}

// Figure6b: AV runtime vs number of items.
func Figure6b(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F6b", "Run time vs #items (Yahoo!-like, AV-Min)", "#items",
		semantics.AV, semantics.Min, p.items,
		func(x int, p scaleParams) (int, int, int, int) { return p.n, x, p.l, p.k })
}

// Figure6c: AV runtime vs number of groups.
func Figure6c(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	return runtimeSweep(o, "F6c", "Run time vs #groups (Yahoo!-like, AV-Min)", "#groups",
		semantics.AV, semantics.Min, p.groups,
		func(x int, p scaleParams) (int, int, int, int) { return p.n, p.m, x, p.k })
}

// ScalingWorkers (beyond the paper): GRD runtime versus the formation
// worker count at the scalability default size, for both semantics.
// The parallel pipeline's determinism contract makes the y-values
// directly comparable — every worker count forms byte-identical
// groups, so the sweep measures nothing but the pipeline itself. The
// speedup ceiling is min(workers, GOMAXPROCS); on a single-CPU host
// the curve is flat (modulo fan-out overhead) by construction.
func ScalingWorkers(o Options) (Exhibit, error) {
	p := scaleDefaults(o.Scale)
	ds, err := scaleDataset(p.n, p.m, o.Seed)
	if err != nil {
		return Exhibit{}, err
	}
	ex := Exhibit{
		ID:     "P1",
		Title:  "Run time vs #workers (Yahoo!-like, n=" + fmt.Sprint(p.n) + ")",
		XLabel: "#workers",
		YLabel: "Run time (ms)",
	}
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		cfg := core.Config{K: p.k, L: p.l, Semantics: sem, Aggregation: semantics.Min}
		s := Series{Name: cfg.AlgorithmName()}
		for _, w := range []int{1, 2, 4, 8} {
			c := cfg
			c.Workers = w
			t, err := timeMS(func() error {
				_, err := core.Form(context.Background(), ds, c)
				return err
			})
			if err != nil {
				return Exhibit{}, err
			}
			s.Points = append(s.Points, Point{float64(w), t})
		}
		ex.Series = append(ex.Series, s)
	}
	return ex, nil
}
