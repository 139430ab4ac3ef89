package groupform

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"groupform/internal/baseline"
	"groupform/internal/core"
	"groupform/internal/ilp"
	"groupform/internal/opt"
)

// solverTestDataset builds a clustered synthetic dataset small enough
// for every registry solver except the exact references.
func solverTestDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(SynthConfig{
		Users: 60, Items: 24, Clusters: 6, RatingsPerUser: 24,
		NoiseRate: 0.05, OrderCorrelation: 0.4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// tinyDataset is the paper's Example 1 (6 users, 3 items), reachable
// by the exact solvers.
func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := FromDense(DefaultScale, [][]float64{
		{1, 4, 3}, {2, 3, 5}, {2, 5, 1}, {2, 5, 1}, {3, 1, 1}, {1, 2, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// solveOnce is the one-shot registry solve the facade tests use:
// construct the named solver and run it under a background context.
func solveOnce(name string, ds *Dataset, cfg Config, opts ...SolverOption) (*Result, error) {
	s, err := NewSolver(name, opts...)
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), ds, cfg)
}

// TestRegistryMatchesLegacy: every algorithm reached through
// NewSolver returns exactly what its internal entry point returns
// under the equivalent options — same groups, same scores, same
// objective — pinning the registry's option mapping.
func TestRegistryMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	big := solverTestDataset(t)
	tiny := tinyDataset(t)
	bigCfg := Config{K: 3, L: 8, Semantics: LM, Aggregation: Min}
	tinyCfg := Config{K: 1, L: 3, Semantics: LM, Aggregation: Min}

	cases := []struct {
		name   string
		opts   []SolverOption
		ds     *Dataset
		cfg    Config
		direct func() (*Result, error)
	}{
		{"grd", nil, big, bigCfg, func() (*Result, error) { return core.Form(ctx, big, bigCfg) }},
		{"baseline-kendall", []SolverOption{WithSeed(7)}, big, bigCfg, func() (*Result, error) {
			return baseline.Form(ctx, big, baseline.Config{Config: bigCfg, Method: baseline.KendallMedoids, Seed: 7})
		}},
		{"baseline-kmeans", []SolverOption{WithSeed(7), WithMaxIter(20)}, big, bigCfg, func() (*Result, error) {
			return baseline.Form(ctx, big, baseline.Config{Config: bigCfg, Method: baseline.VectorKMeans, Seed: 7, MaxIter: 20})
		}},
		{"baseline-clara", []SolverOption{WithSeed(7), WithPlusPlus(true)}, big, bigCfg, func() (*Result, error) {
			return baseline.Form(ctx, big, baseline.Config{Config: bigCfg, Method: baseline.ClaraMedoids, Seed: 7, PlusPlus: true})
		}},
		{"exact", nil, tiny, tinyCfg, func() (*Result, error) { return opt.Exact(ctx, tiny, tinyCfg) }},
		{"bb", nil, tiny, tinyCfg, func() (*Result, error) { return opt.BranchAndBound(ctx, tiny, tinyCfg, BBOptions{}) }},
		{"ls", []SolverOption{WithLSOptions(LSOptions{Iterations: 500, Restarts: 2, Seed: 3, Anneal: true})}, big, bigCfg, func() (*Result, error) {
			return opt.LocalSearch(ctx, big, bigCfg, LSOptions{Iterations: 500, Restarts: 2, Seed: 3, Anneal: true})
		}},
		{"ip", nil, tiny, tinyCfg, func() (*Result, error) { return ilp.Form(ctx, tiny, tinyCfg, IPOptions{}) }},
	}
	for _, tc := range cases {
		s, err := NewSolver(tc.name, tc.opts...)
		if err != nil {
			t.Fatalf("NewSolver(%s): %v", tc.name, err)
		}
		if s.Name() != tc.name {
			t.Errorf("Name() = %q, want %q", s.Name(), tc.name)
		}
		got, err := s.Solve(ctx, tc.ds, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := tc.direct()
		if err != nil {
			t.Fatalf("%s direct: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: registry result differs from the internal entry point\n got: %+v\nwant: %+v", tc.name, got, want)
		}
	}
}

// TestSolversListsAllAlgorithms pins the registry surface.
func TestSolversListsAllAlgorithms(t *testing.T) {
	want := []string{"grd", "baseline-kendall", "baseline-kmeans", "baseline-clara", "exact", "bb", "ls", "ip"}
	if got := Solvers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Solvers() = %v, want %v", got, want)
	}
	infos := SolverInfos()
	if len(infos) != len(want) {
		t.Fatalf("SolverInfos() has %d entries, want %d", len(infos), len(want))
	}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
	}
	// Aliases resolve to the same implementation.
	for alias, canon := range map[string]string{
		"greedy": "grd", "baseline": "baseline-kendall", "kmeans": "baseline-kmeans",
		"clara": "baseline-clara", "dp": "exact", "branchbound": "bb", "localsearch": "ls",
	} {
		s, err := NewSolver(alias)
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if s.Name() != canon {
			t.Errorf("alias %q resolved to %q, want %q", alias, s.Name(), canon)
		}
	}
}

// TestSolverErrors: the sentinel scheme is errors.Is-able across the
// whole surface.
func TestSolverErrors(t *testing.T) {
	ctx := context.Background()
	tiny := tinyDataset(t)
	good := Config{K: 1, L: 3, Semantics: LM, Aggregation: Min}

	if _, err := NewSolver("no-such-algo"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown solver: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSolver("grd", WithLSOptions(LSOptions{})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("inapplicable option: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSolver("ls", WithBBOptions(BBOptions{})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("inapplicable option: err = %v, want ErrBadConfig", err)
	}

	for _, bad := range []Config{
		{K: 0, L: 3, Semantics: LM, Aggregation: Min},
		{K: 1, L: 0, Semantics: LM, Aggregation: Min},
		{K: 99, L: 3, Semantics: LM, Aggregation: Min},
		{K: 1, L: 3, Semantics: Semantics(9), Aggregation: Min},
		{K: 1, L: 3, Semantics: LM, Aggregation: Aggregation(9)},
	} {
		for _, name := range Solvers() {
			s, err := NewSolver(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(ctx, tiny, bad); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s with %+v: err = %v, want ErrBadConfig", name, bad, err)
			}
		}
	}

	// The IP solver rejects K != 1 by construction.
	ip, err := NewSolver("ip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Solve(ctx, tiny, Config{K: 2, L: 3, Semantics: LM, Aggregation: Min}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("ip with K=2: err = %v, want ErrBadConfig", err)
	}

	// Size and budget limits classify as ErrTooLarge.
	big, err := Generate(SynthConfig{Users: 30, Items: 10, Clusters: 3, RatingsPerUser: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewSolver("exact")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exact.Solve(ctx, big, Config{K: 1, L: 3, Semantics: LM, Aggregation: Min}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("exact at n=30: err = %v, want ErrTooLarge", err)
	}
	bb, err := NewSolver("bb", WithBBOptions(BBOptions{MaxNodes: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bb.Solve(ctx, tiny, good); !errors.Is(err, ErrTooLarge) {
		t.Errorf("bb at MaxNodes=3: err = %v, want ErrTooLarge", err)
	}
	ipLim, err := NewSolver("ip", WithIPOptions(IPOptions{MaxNodes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ipLim.Solve(ctx, tiny, good); !errors.Is(err, ErrTooLarge) {
		t.Errorf("ip at MaxNodes=1: err = %v, want ErrTooLarge", err)
	}
}

// TestWithBudget: an expired budget surfaces as ErrCanceled (and the
// underlying context.DeadlineExceeded).
func TestWithBudget(t *testing.T) {
	ds := solverTestDataset(t)
	s, err := NewSolver("ls", WithBudget(time.Nanosecond), WithLSOptions(LSOptions{Iterations: 1 << 30}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), ds, Config{K: 3, L: 5, Semantics: LM, Aggregation: Min})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to also wrap context.DeadlineExceeded", err)
	}
}
