package groupform

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestEngineMatchesOneShot: Engine.Form over every semantics and
// aggregation equals the one-shot registry path bit for bit, on both
// the cold and the warm cache.
func TestEngineMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	ds := solverTestDataset(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := NewSolver("grd")
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []Semantics{LM, AV} {
		for _, agg := range []Aggregation{Max, Min, Sum, WeightedSumLog} {
			cfg := Config{K: 3, L: 7, Semantics: sem, Aggregation: agg}
			for pass := 0; pass < 2; pass++ { // cold, then warm
				got, err := eng.Form(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := grd.Solve(ctx, ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v-%v pass %d: engine result differs from one-shot", sem, agg, pass)
				}
			}
		}
	}
	// All 16 runs above share one (K, Missing) pair: exactly one
	// build, everything else served from the cache.
	if s := eng.Stats(); s.PrefBuilds != 1 || s.PrefHits != 15 {
		t.Errorf("stats = %+v, want 1 build / 15 hits", s)
	}
}

// TestEngineConcurrent hammers one Engine from many goroutines with a
// mix of configurations (run under -race in CI): the cached state
// must be shared safely and every result must equal the one-shot
// path.
func TestEngineConcurrent(t *testing.T) {
	ctx := context.Background()
	ds := solverTestDataset(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := NewSolver("grd")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{K: 3, L: 7, Semantics: LM, Aggregation: Min},
		{K: 3, L: 7, Semantics: AV, Aggregation: Sum},
		{K: 5, L: 4, Semantics: LM, Aggregation: Max, Workers: 2},
		{K: 3, L: 12, Semantics: LM, Aggregation: Sum},
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = grd.Solve(ctx, ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(cfgs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cfgs {
				idx := (g + i) % len(cfgs)
				got, err := eng.Form(ctx, cfgs[idx])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[idx]) {
					errs <- fmt.Errorf("goroutine %d cfg %d: result differs from one-shot", g, idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Two distinct K values were requested; the engine must have paid
	// for exactly two builds no matter the interleaving.
	if s := eng.Stats(); s.PrefBuilds != 2 {
		t.Errorf("PrefBuilds = %d, want 2", s.PrefBuilds)
	}
}

// TestEngineSkipsPrefBuildAt10k is the acceptance check for the
// caching contract: at n = 10k, the second Form on a bound dataset
// performs no preference-list construction (the counter, not wall
// clock, so the test is deterministic; BenchmarkEngineForm in
// bench_test.go measures the resulting speedup).
func TestEngineSkipsPrefBuildAt10k(t *testing.T) {
	ds, err := YahooLike(10_000, 1_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := Config{K: 5, L: 10, Semantics: LM, Aggregation: Min}
	if _, err := eng.Form(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.PrefBuilds != 1 || s.PrefHits != 0 {
		t.Fatalf("after first Form: stats = %+v, want 1 build / 0 hits", s)
	}
	cfg.L = 100 // different budget, same lists
	if _, err := eng.Form(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.PrefBuilds != 1 || s.PrefHits != 1 {
		t.Fatalf("after second Form: stats = %+v, want 1 build / 1 hit", s)
	}
	cfg.Semantics, cfg.Aggregation = AV, Sum // still the same lists
	if _, err := eng.Form(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.PrefBuilds != 1 || s.PrefHits != 2 {
		t.Fatalf("after third Form: stats = %+v, want 1 build / 2 hits", s)
	}
	cfg.K = 10 // different K does rebuild
	if _, err := eng.Form(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.PrefBuilds != 2 || s.PrefHits != 2 {
		t.Fatalf("after K change: stats = %+v, want 2 builds / 2 hits", s)
	}
}

// TestEngineSolve: the Engine runs any registered solver against its
// bound dataset, and validates like NewSolver.
func TestEngineSolve(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 1, L: 3, Semantics: LM, Aggregation: Min}
	grd, err := eng.Solve(ctx, "grd", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if grd.Objective != 11 {
		t.Errorf("grd objective = %v, want 11", grd.Objective)
	}
	if s := eng.Stats(); s.PrefBuilds != 1 {
		t.Errorf("Engine.Solve(grd) bypassed the cache: %+v", s)
	}
	exact, err := eng.Solve(ctx, "exact", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Objective != 12 {
		t.Errorf("exact objective = %v, want 12", exact.Objective)
	}
	if _, err := eng.Solve(ctx, "nope", cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown algo: err = %v, want ErrBadConfig", err)
	}
	if _, err := eng.Solve(ctx, "greedy", cfg); err != nil {
		t.Errorf("alias through Engine.Solve: %v", err)
	}
}

// TestEngineWaiterHonorsOwnContext: a caller waiting on another
// goroutine's in-flight cold build must observe its *own* context's
// cancellation immediately, not ride out the build.
func TestEngineWaiterHonorsOwnContext(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a deliberately slow cold build")
	}
	ds, err := YahooLike(120_000, 2_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 5, L: 10, Semantics: LM, Aggregation: Min}
	buildDone := make(chan error, 1)
	go func() {
		_, err := eng.Form(context.Background(), cfg)
		buildDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the cold build get in flight
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = eng.Form(ctx, cfg)
	waited := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("waiter err = %v, want ErrCanceled", err)
	}
	if waited > 200*time.Millisecond {
		t.Errorf("canceled waiter took %v, should return immediately", waited)
	}
	if err := <-buildDone; err != nil {
		t.Fatalf("builder: %v", err)
	}
}

// TestNewEngineValidates rejects empty datasets up front.
func TestNewEngineValidates(t *testing.T) {
	if _, err := NewEngine(nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NewEngine(nil): err = %v, want ErrBadConfig", err)
	}
}

// TestEngineFormIntoMatchesForm: the scratch-owned serving path forms
// byte-identical groups to Form across the semantics/aggregation
// sweep, with one deliberately dirty Scratch reused for every cell.
func TestEngineFormIntoMatchesForm(t *testing.T) {
	ctx := context.Background()
	ds := solverTestDataset(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	for _, sem := range []Semantics{LM, AV} {
		for _, agg := range []Aggregation{Max, Min, Sum, WeightedSumLog} {
			for _, l := range []int{3, 1000} { // heap branch and split branch
				cfg := Config{K: 3, L: l, Semantics: sem, Aggregation: agg}
				want, err := eng.Form(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.FormInto(ctx, cfg, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v-%v L=%d: FormInto result differs from Form", sem, agg, l)
				}
			}
		}
	}
	if _, err := eng.FormInto(ctx, Config{K: 3, L: 3, Semantics: LM, Aggregation: Min}, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("FormInto(nil scratch): err = %v, want ErrBadConfig", err)
	}
}

// TestFormResultIsCallerOwned: a Result from Engine.Form or the
// one-shot grd solver shares no memory with the preference cache, the
// pooled scratch or a later run. Every Members/Items/ItemScores slice
// of a first result is overwritten; later Forms with the same and with
// another config on this goroutine (the pool hands back the same
// scratch) and a FormInto must still answer the saved copies, and a
// second, untouched result must survive those runs unchanged.
func TestFormResultIsCallerOwned(t *testing.T) {
	ctx := context.Background()
	ds := solverTestDataset(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	forms := []struct {
		name string
		form func(Config) (*Result, error)
	}{
		{"Engine.Form", func(cfg Config) (*Result, error) { return eng.Form(ctx, cfg) }},
		{"grd", func(cfg Config) (*Result, error) { return solveOnce("grd", ds, cfg) }},
	}
	s := NewScratch()
	for _, f := range forms {
		for _, sem := range []Semantics{LM, AV} {
			for _, agg := range []Aggregation{Max, Min, Sum} {
				for _, l := range []int{3, 1000} { // heap branch and split branch
					cfg := Config{K: 3, L: l, Semantics: sem, Aggregation: agg}
					other := Config{K: 3, L: 5, Semantics: sem, Aggregation: Min}
					name := fmt.Sprintf("%s %v-%v L=%d", f.name, sem, agg, l)
					wantOther, err := f.form(other)
					if err != nil {
						t.Fatal(err)
					}
					wantOther = copyResult(wantOther)
					first, err := f.form(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := copyResult(first)
					scribble(first)
					second, err := f.form(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(second, want) {
						t.Fatalf("%s: overwriting a result changed the next answer", name)
					}
					kept := copyResult(second)
					if got, err := f.form(other); err != nil || !reflect.DeepEqual(got, wantOther) {
						t.Fatalf("%s: answer for another config changed (err %v)", name, err)
					}
					if got, err := eng.FormInto(ctx, cfg, s); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: FormInto after an overwritten result differs (err %v)", name, err)
					}
					if !reflect.DeepEqual(second, kept) {
						t.Fatalf("%s: a returned result changed under later runs", name)
					}
				}
			}
		}
	}
}

// copyResult deep-copies r's slices (nil stays nil).
func copyResult(r *Result) *Result {
	out := *r
	out.Groups = make([]Group, len(r.Groups))
	for i, g := range r.Groups {
		g.Members = slices.Clone(g.Members)
		g.Items = slices.Clone(g.Items)
		g.ItemScores = slices.Clone(g.ItemScores)
		out.Groups[i] = g
	}
	if r.Partial != nil {
		p := *r.Partial
		out.Partial = &p
	}
	return &out
}

// scribble overwrites every element of r's group slices.
func scribble(r *Result) {
	for _, g := range r.Groups {
		for i := range g.Members {
			g.Members[i] = -1
		}
		for i := range g.Items {
			g.Items[i] = -1
		}
		for i := range g.ItemScores {
			g.ItemScores[i] = -1
		}
	}
}

// TestEngineFormIntoSteadyStateZeroAlloc pins the tentpole's
// acceptance bar: a warm serial Engine.FormInto at n=10k, started from
// the cached bucket partition, performs zero allocations per solve.
// (internal/core's TestFormIntoSteadyStateZeroAlloc holds the
// bucketizing path to the same bar.)
func TestEngineFormIntoSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user dataset")
	}
	ds, err := YahooLike(10_000, 1_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 5, L: 10, Semantics: LM, Aggregation: Min}
	s := NewScratch()
	ctx := context.Background()
	for i := 0; i < 3; i++ { // build the lists, fill the partition, warm the scratch
		if _, err := eng.FormInto(ctx, cfg, s); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := cachedAllocs(t, eng, cfg, s); allocs != 0 {
		t.Fatalf("warm Engine.FormInto allocated %v times per solve, want 0", allocs)
	}
}

// cachedAllocs is testing.AllocsPerRun over warm FormInto calls on s
// that must all start from the engine's cached bucket partition: no
// fill, one partition hit per call.
func cachedAllocs(t *testing.T, eng *Engine, cfg Config, s *Scratch) float64 {
	t.Helper()
	const runs = 10
	before := eng.Stats()
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := eng.FormInto(context.Background(), cfg, s); err != nil {
			t.Fatal(err)
		}
	})
	after := eng.Stats()
	if after.PartitionBuilds != before.PartitionBuilds || after.PartitionHits-before.PartitionHits != runs+1 {
		t.Fatalf("%s K=%d: measured calls did not all start from the cached partition: %+v -> %+v", cfg.AlgorithmName(), cfg.K, before, after)
	}
	return allocs
}

// TestEngineFormIntoSplitBranchSteadyStateZeroAlloc holds the other
// finalization branch to the same bar. On the clustered catalog of
// BenchmarkEngineForm these configs form fewer buckets than L=50, so a
// warm serial solve splits buckets into pieces: LM-MAX pieces complete
// their lists through a top-k, and LM-MIN's strict pieces rescore the
// bucket list over their own members.
func TestEngineFormIntoSplitBranchSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user dataset")
	}
	ds, err := Generate(SynthConfig{
		Users: 10_000, Items: 1_000, Clusters: 200,
		RatingsPerUser: 60, OrderCorrelation: 0.9, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	ctx := context.Background()
	for _, cfg := range []Config{
		{K: 2, L: 50, Semantics: LM, Aggregation: Max},
		{K: 5, L: 50, Semantics: LM, Aggregation: Max},
		{K: 2, L: 50, Semantics: LM, Aggregation: Min},
	} {
		for i := 0; i < 3; i++ {
			res, err := eng.FormInto(ctx, cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Buckets >= cfg.L {
				t.Fatalf("%v-%v K=%d: %d buckets for L=%d, want the split branch", cfg.Semantics, cfg.Aggregation, cfg.K, res.Buckets, cfg.L)
			}
		}
		if allocs := cachedAllocs(t, eng, cfg, s); allocs != 0 {
			t.Errorf("%v-%v K=%d: warm split-branch Engine.FormInto allocated %v times per solve, want 0", cfg.Semantics, cfg.Aggregation, cfg.K, allocs)
		}
	}
}

// TestEngineFormIntoAnytimeSteadyStateZeroAlloc pins the graceful-
// degradation acceptance bar: turning on Config.Anytime must not cost
// the warm serving path anything — a steady-state serial FormInto that
// runs to completion with the anytime machinery armed still performs
// zero allocations per solve.
func TestEngineFormIntoAnytimeSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user dataset")
	}
	ds, err := YahooLike(10_000, 1_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 5, L: 10, Semantics: LM, Aggregation: Min, Anytime: true}
	s := NewScratch()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := eng.FormInto(ctx, cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial != nil {
			t.Fatalf("uncanceled anytime solve returned a certificate: %+v", res.Partial)
		}
	}
	if allocs := cachedAllocs(t, eng, cfg, s); allocs != 0 {
		t.Fatalf("warm anytime Engine.FormInto allocated %v times per solve, want 0", allocs)
	}
}

// TestEngineFormIntoAfterUpsertSteadyStateZeroAlloc pins the mutable-
// dataset acceptance bar: after an unrelated single-user upsert rides
// through Engine.Advance, the derived engine keeps the warm cache (no
// new preference build, exactly one patched row) and a warm serial
// FormInto still performs zero allocations per solve — ingesting a
// rating must not knock the serving path off its steady state.
func TestEngineFormIntoAfterUpsertSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user dataset")
	}
	ds, err := YahooLike(10_000, 1_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 5, L: 10, Semantics: LM, Aggregation: Min}
	s := NewScratch()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := eng.FormInto(ctx, cfg, s); err != nil {
			t.Fatal(err)
		}
	}

	// Re-rate one existing (user, item) pair: one dirty row, no new
	// users or items, overlay fast path.
	u := ds.Users()[4321]
	it := ds.UserRatings(u)[0].Item
	ds2, res, err := ds.Upsert([]Rating{{User: u, Item: it, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilt {
		t.Fatalf("single re-rating took the rebuild fallback: %+v", res)
	}
	eng2, err := eng.Advance(ds2, res)
	if err != nil {
		t.Fatal(err)
	}
	before := eng2.Stats()
	if before.PrefBuilds != 1 || before.RowsPatched != 1 || before.RowsReused != 9_999 {
		t.Fatalf("stats after Advance = %+v, want the carried cache with 1 patched row", before)
	}

	// The upsert dropped the bucket partition: the derived engine's
	// second request refills it.
	for i := 0; i < 2; i++ {
		if _, err := eng2.FormInto(ctx, cfg, s); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := cachedAllocs(t, eng2, cfg, s); allocs != 0 {
		t.Fatalf("warm Engine.FormInto after an upsert allocated %v times per solve, want 0", allocs)
	}
	if after := eng2.Stats(); after.PrefBuilds != before.PrefBuilds {
		t.Fatalf("FormInto after Advance paid a preference build: %+v -> %+v", before, after)
	}
}
