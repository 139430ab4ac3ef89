// Benchmarks for every table and figure in the paper's evaluation
// (Section 7), plus micro-benchmarks of the core operations. Each
// BenchmarkFigure*/BenchmarkTable* regenerates the corresponding
// exhibit at the small scale; run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or `go run ./cmd/experiments -paper` to
// regenerate the exhibits at the paper's parameter scales.
package groupform

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"groupform/internal/baseline"
	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/experiments"
	"groupform/internal/ilp"
	"groupform/internal/metrics"
	"groupform/internal/opt"
	"groupform/internal/rank"
	"groupform/internal/selection"
	"groupform/internal/semantics"
	"groupform/internal/solver"
	"groupform/internal/synth"
	"groupform/internal/wire"
)

// benchExhibit runs one experiments harness per iteration.
func benchExhibit(b *testing.B, run experiments.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ex, err := run(experiments.Options{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(ex.Series) == 0 && ex.Notes == "" {
			b.Fatal("empty exhibit")
		}
	}
}

// Quality experiments (Figures 1-3, Tables 3-4).

func BenchmarkTable3(b *testing.B)   { benchExhibit(b, experiments.Table3) }
func BenchmarkFigure1a(b *testing.B) { benchExhibit(b, experiments.Figure1a) }
func BenchmarkFigure1b(b *testing.B) { benchExhibit(b, experiments.Figure1b) }
func BenchmarkFigure1c(b *testing.B) { benchExhibit(b, experiments.Figure1c) }
func BenchmarkFigure2a(b *testing.B) { benchExhibit(b, experiments.Figure2a) }
func BenchmarkFigure2b(b *testing.B) { benchExhibit(b, experiments.Figure2b) }
func BenchmarkFigure3a(b *testing.B) { benchExhibit(b, experiments.Figure3a) }
func BenchmarkFigure3b(b *testing.B) { benchExhibit(b, experiments.Figure3b) }
func BenchmarkFigure3c(b *testing.B) { benchExhibit(b, experiments.Figure3c) }
func BenchmarkFigure3d(b *testing.B) { benchExhibit(b, experiments.Figure3d) }
func BenchmarkTable4(b *testing.B)   { benchExhibit(b, experiments.Table4) }

// Scalability experiments (Figures 4-6).

func BenchmarkFigure4a(b *testing.B) { benchExhibit(b, experiments.Figure4a) }
func BenchmarkFigure4b(b *testing.B) { benchExhibit(b, experiments.Figure4b) }
func BenchmarkFigure4c(b *testing.B) { benchExhibit(b, experiments.Figure4c) }
func BenchmarkFigure5a(b *testing.B) { benchExhibit(b, experiments.Figure5a) }
func BenchmarkFigure5b(b *testing.B) { benchExhibit(b, experiments.Figure5b) }
func BenchmarkFigure5c(b *testing.B) { benchExhibit(b, experiments.Figure5c) }
func BenchmarkFigure5d(b *testing.B) { benchExhibit(b, experiments.Figure5d) }
func BenchmarkFigure6a(b *testing.B) { benchExhibit(b, experiments.Figure6a) }
func BenchmarkFigure6b(b *testing.B) { benchExhibit(b, experiments.Figure6b) }
func BenchmarkFigure6c(b *testing.B) { benchExhibit(b, experiments.Figure6c) }

// User study (Figure 7).

func BenchmarkFigure7(b *testing.B) { benchExhibit(b, experiments.Figure7) }

// ---------------------------------------------------------------
// Micro-benchmarks of the core operations.

func benchDataset(b *testing.B, n, m int) *dataset.Dataset {
	b.Helper()
	ds, err := synth.YahooLike(n, m, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkGRD measures the greedy formation across semantics and
// aggregations at a fixed size (the ablation over the six algorithm
// variants).
func BenchmarkGRD(b *testing.B) {
	ds := benchDataset(b, 10000, 2000)
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
			cfg := core.Config{K: 5, L: 10, Semantics: sem, Aggregation: agg}
			b.Run(fmt.Sprintf("%s-%s", sem, agg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Form(context.Background(), ds, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGRDUsers is the Figure-4a ablation as a Go benchmark:
// formation time versus the user count, one sub-benchmark per n.
func BenchmarkGRDUsers(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		ds := benchDataset(b, n, 2000)
		cfg := core.Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Form(context.Background(), ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGRDParallel is the serial-vs-parallel comparison of the
// formation pipeline: GRD-LM-Min across the paper's user-count sweep
// at worker counts 1, 2 and 8. Every cell forms byte-identical groups
// (the pipeline's determinism contract). On this shape (YahooLike,
// L=10) the merged remainder is scored by its complement and
// bucketizing is serial at every worker count, so what the worker
// cells parallelize is the cold preference-list build
// (rank.AllTopKParallel) and the fan-out over the L-1 bucket groups;
// the rest is serial. The ceiling is min(workers, GOMAXPROCS); see
// docs/ARCHITECTURE.md for measured numbers.
func BenchmarkGRDParallel(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		ds := benchDataset(b, n, 2000)
		for _, w := range []int{1, 2, 8} {
			cfg := core.Config{
				K: 5, L: 10,
				Semantics: semantics.LM, Aggregation: semantics.Min,
				Workers: w,
			}
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Form(context.Background(), ds, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGRDParallelAV is the AV-side companion at n=10^5. The
// catalog's integer ratings make it an exact grid, so the merged
// remainder is scored by its complement here too and the chunked
// top-k never runs; the worker cells time rank.AllTopKParallel and
// the fan-out, as in BenchmarkGRDParallel.
func BenchmarkGRDParallelAV(b *testing.B) {
	ds := benchDataset(b, 100000, 2000)
	for _, w := range []int{1, 2, 8} {
		cfg := core.Config{
			K: 5, L: 10,
			Semantics: semantics.AV, Aggregation: semantics.Min,
			Workers: w,
		}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Form(context.Background(), ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGRDTopK mirrors Figure 5: k grows geometrically.
func BenchmarkGRDTopK(b *testing.B) {
	ds := benchDataset(b, 10000, 2000)
	for _, k := range []int{5, 25, 125, 625} {
		cfg := core.Config{K: k, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Form(context.Background(), ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaseline measures the two clustering backends.
func BenchmarkBaseline(b *testing.B) {
	small := benchDataset(b, 300, 100)
	big := benchDataset(b, 10000, 2000)
	cfg := core.Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min}
	b.Run("kendall-medoids-n=300", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Form(context.Background(), small, baseline.Config{Config: cfg, Method: baseline.KendallMedoids, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vector-kmeans-n=10000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Form(context.Background(), big, baseline.Config{Config: cfg, Method: baseline.VectorKMeans, MaxIter: 10, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKendallTau measures the O(m log m) distance on dense score
// vectors.
func BenchmarkKendallTau(b *testing.B) {
	for _, m := range []int{100, 1000, 10000} {
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			xs[i] = float64((i * 7919) % 101)
			ys[i] = float64((i * 104729) % 97)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rank.KendallTau(xs, ys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScorerTopK measures the group top-k computation (the
// merged l-th group's cost) for growing group sizes on the dense
// index-space accumulation (B/op and allocs/op are the interesting
// columns: it runs on pooled flat arrays). The dense/ prefix keeps the
// names the committed bench baselines use.
func BenchmarkScorerTopK(b *testing.B) {
	ds := benchDataset(b, 20000, 2000)
	users := ds.Users()
	sc := semantics.Scorer{DS: ds}
	for _, size := range []int{100, 1000, 10000} {
		members := users[:size]
		b.Run(fmt.Sprintf("dense/members=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sc.TopK(semantics.LM, members, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllTopK measures the O(nk) preference-list construction —
// the other half of the greedy preprocessing — straight off the CSR
// rows. The arena backing means allocs/op stays O(1) in n.
func BenchmarkAllTopK(b *testing.B) {
	ds := benchDataset(b, 10000, 2000)
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rank.AllTopKParallel(context.Background(), ds, 5, 0, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExact measures the subset-DP optimal solver at its
// feasibility edge.
func BenchmarkExact(b *testing.B) {
	for _, n := range []int{8, 12} {
		ds, err := synth.Generate(synth.Config{Users: n, Items: 6, Clusters: 3, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{K: 2, L: 3, Semantics: semantics.LM, Aggregation: semantics.Min}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := opt.Exact(context.Background(), ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalSearch measures the OPT proxy at quality-experiment
// scale.
func BenchmarkLocalSearch(b *testing.B) {
	ds, err := synth.Generate(synth.Config{Users: 200, Items: 100, Clusters: 20, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min}
	for i := 0; i < b.N; i++ {
		if _, err := opt.LocalSearch(context.Background(), ds, cfg, opt.LSOptions{Iterations: 2000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILP measures the Appendix-A integer program on the paper's
// Example 1 (the k=1 optimal reference).
func BenchmarkILP(b *testing.B) {
	ds, err := dataset.FromDense(dataset.DefaultScale, [][]float64{
		{1, 4, 3}, {2, 3, 5}, {2, 5, 1}, {2, 5, 1}, {3, 1, 1}, {1, 2, 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := ilp.SolveGF(context.Background(), ds, 3, semantics.LM, ilp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineForm measures the serving-path win of the Engine's
// caches at the acceptance scale (n = 10k): "cold" pays the O(nk)
// list construction and the bucketize pass on every iteration (a
// fresh engine each time, i.e. the legacy one-shot path), "warm"
// reuses one bound engine the way a serving process would, primed
// twice so every timed solve starts from the cached bucket partition
// (the first request builds the lists, the second fills the
// partition). Two workload shapes:
// "yahoo" is the sparse scalability substrate, where the merged
// group's top-k dominates and the cache still takes ~35% off;
// "clustered" is a taste-community catalog (the serving scenario the
// Engine exists for), where preference lists dominate and the warm
// path runs >= 2x faster (measured ~2.9x on the CI substrate).
func BenchmarkEngineForm(b *testing.B) {
	shapes := []struct {
		name string
		gen  func() (*dataset.Dataset, error)
		l    int
	}{
		{"yahoo", func() (*dataset.Dataset, error) { return synth.YahooLike(10_000, 1_000, 3) }, 10},
		{"clustered", func() (*dataset.Dataset, error) {
			return synth.Generate(synth.Config{
				Users: 10_000, Items: 1_000, Clusters: 200,
				RatingsPerUser: 60, OrderCorrelation: 0.9, Seed: 3,
			})
		}, 50},
	}
	ctx := context.Background()
	for _, shape := range shapes {
		ds, err := shape.gen()
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{K: 5, L: shape.l, Semantics: semantics.LM, Aggregation: semantics.Min}
		b.Run(shape.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := solver.NewEngine(ds)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Form(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/warm", func(b *testing.B) {
			eng, err := solver.NewEngine(ds)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2; i++ { // build the lists, fill the partition
				if _, err := eng.Form(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Form(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		// warm-overlay measures the overlay-read overhead on the same
		// warm path: identical ratings, but 256 of the rows resolve
		// through the delta overlay's map instead of the frozen CSR
		// arrays. The delta from the warm cell is the per-solve price
		// of serving between upsert and compaction.
		b.Run(shape.name+"/warm-overlay", func(b *testing.B) {
			dsOv, eng := overlayEngine(b, ds, cfg, 256)
			for i := 0; i < 2; i++ { // the upsert dropped the partition: refill it
				if _, err := eng.Form(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
			if dsOv.Overlay().DirtyRows == 0 {
				b.Fatal("overlay did not take the fast path")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Form(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// overlayEngine re-rates `rows` distinct users of ds and rides the
// delta through Engine.Advance: the warm-cache engine a serving
// process holds between an upsert burst and the next compaction.
func overlayEngine(b *testing.B, ds *dataset.Dataset, cfg core.Config, rows int) (*dataset.Dataset, *solver.Engine) {
	b.Helper()
	eng, err := solver.NewEngine(ds)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Form(context.Background(), cfg); err != nil { // prime
		b.Fatal(err)
	}
	users := ds.Users()
	batch := make([]dataset.Rating, rows)
	for i := range batch {
		u := users[(i*37)%len(users)]
		batch[i] = dataset.Rating{User: u, Item: ds.UserRatings(u)[0].Item, Value: float64(1 + i%5)}
	}
	dsOv, res, err := ds.Upsert(batch)
	if err != nil {
		b.Fatal(err)
	}
	eng, err = eng.Advance(dsOv, res)
	if err != nil {
		b.Fatal(err)
	}
	return dsOv, eng
}

// BenchmarkRatingUpsert is the ingest path's unit cost at the
// acceptance scale (n = 10k): derive a successor Dataset with Upsert
// and a successor Engine with Advance against a warm preference-list
// cache — the work one POST /datasets/{name}/ratings performs between
// decode and registry swap. Every iteration starts from the same base
// snapshot, so the number is a steady per-batch cost, not an
// accumulating overlay.
func BenchmarkRatingUpsert(b *testing.B) {
	ds := benchDataset(b, 10_000, 1_000)
	cfg := core.Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min}
	eng, err := solver.NewEngine(ds)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Form(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	users := ds.Users()
	for _, size := range []int{1, 64} {
		batch := make([]dataset.Rating, size)
		for i := range batch {
			u := users[(i*131)%len(users)]
			batch[i] = dataset.Rating{User: u, Item: ds.UserRatings(u)[0].Item, Value: float64(1 + i%5)}
		}
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nds, res, err := ds.Upsert(batch)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Advance(nds, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompaction measures rebuilding the frozen CSR out of an
// overlay-carrying dataset (the background republish step) at n = 10k
// with 1024 pending upserts.
func BenchmarkCompaction(b *testing.B) {
	ds := benchDataset(b, 10_000, 1_000)
	users := ds.Users()
	cur := ds
	for start := 0; start < 1024; start += 64 {
		batch := make([]dataset.Rating, 64)
		for i := range batch {
			u := users[(start+i*17)%len(users)]
			batch[i] = dataset.Rating{User: u, Item: ds.UserRatings(u)[0].Item, Value: float64(1 + i%5)}
		}
		var err error
		if cur, _, err = cur.Upsert(batch); err != nil {
			b.Fatal(err)
		}
	}
	if cur.Overlay().Upserts != 1024 {
		b.Fatalf("overlay holds %d upserts, want 1024", cur.Overlay().Upserts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cur.Compact().NumRatings() != ds.NumRatings() {
			b.Fatal("compaction changed the rating count")
		}
	}
}

// BenchmarkEngineFormSteadyState is the tentpole's serving-path
// benchmark: one bound Engine, one caller-owned Scratch, warm
// preference lists — the per-request cost of a zero-allocation
// steady-state solve at the acceptance scale (n = 10k). allocs/op is
// the headline column and must read 0; TestEngineFormIntoSteadyState-
// ZeroAlloc asserts the same bar in the test suite.
func BenchmarkEngineFormSteadyState(b *testing.B) {
	ds := benchDataset(b, 10_000, 1_000)
	eng, err := solver.NewEngine(ds)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min}
	s := core.NewScratch()
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm lists, partition and arenas
		if _, err := eng.FormInto(ctx, cfg, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.FormInto(ctx, cfg, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnytimeEngineFormSteadyState measures what arming
// Config.Anytime costs a solve that is never cut: the answer must be
// nothing — same warm steady state as BenchmarkEngineFormSteadyState,
// allocs/op still 0 (asserted by TestEngineFormIntoAnytime-
// SteadyStateZeroAlloc).
func BenchmarkAnytimeEngineFormSteadyState(b *testing.B) {
	ds := benchDataset(b, 10_000, 1_000)
	eng, err := solver.NewEngine(ds)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min, Anytime: true}
	s := core.NewScratch()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := eng.FormInto(ctx, cfg, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.FormInto(ctx, cfg, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnytimeDegradedForm measures the degrade path itself: a
// warm solve whose context trips at the last cancellation touchpoint,
// so every iteration assembles a best-so-far incumbent plus its
// quality certificate instead of finishing. The delta against
// BenchmarkAnytimeEngineFormSteadyState is the price of returning
// early with a certificate.
func BenchmarkAnytimeDegradedForm(b *testing.B) {
	ds := benchDataset(b, 10_000, 1_000)
	eng, err := solver.NewEngine(ds)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min, Anytime: true}
	s := core.NewScratch()
	for i := 0; i < 3; i++ {
		if _, err := eng.FormInto(context.Background(), cfg, s); err != nil {
			b.Fatal(err)
		}
	}
	// Count the warm solve's touchpoints, then pick the latest trip
	// point that actually degrades.
	probe := &tripCtx{remaining: 1 << 20}
	if _, err := eng.FormInto(probe, cfg, s); err != nil {
		b.Fatal(err)
	}
	trip := -1
	for n := probe.calls(1<<20) - 1; n >= 0; n-- {
		res, err := eng.FormInto(&tripCtx{remaining: n}, cfg, s)
		if err == nil && res.Partial != nil {
			trip = n
			break
		}
	}
	if trip < 0 {
		b.Fatal("no trip point degrades the warm solve")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.FormInto(&tripCtx{remaining: trip}, cfg, s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Partial == nil {
			b.Fatal("degraded solve returned no certificate")
		}
	}
}

// BenchmarkTopKSelect pits the k-bounded selection kernel against the
// historical full sort + truncate on the pipeline's candidate shape,
// at m candidates and list length k. The kernel's win is the point of
// internal/selection: one comparison per rejected candidate instead
// of O(m log m) swap traffic.
func BenchmarkTopKSelect(b *testing.B) {
	type cand struct {
		item  dataset.ItemID
		score float64
	}
	less := func(x, y cand) bool {
		if x.score != y.score {
			return x.score > y.score
		}
		return x.item < y.item
	}
	for _, m := range []int{1_000, 100_000} {
		base := make([]cand, m)
		rng := rand.New(rand.NewSource(int64(m)))
		for i := range base {
			base[i] = cand{item: dataset.ItemID(i), score: float64(rng.Intn(11))}
		}
		work := make([]cand, m)
		for _, k := range []int{5, 50} {
			b.Run(fmt.Sprintf("kernel/m=%d/k=%d", m, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(work, base)
					selection.TopK(work, k, less)
				}
			})
			b.Run(fmt.Sprintf("fullsort/m=%d/k=%d", m, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(work, base)
					sort.Slice(work, func(x, y int) bool { return less(work[x], work[y]) })
				}
			})
		}
	}
}

// BenchmarkServerForm is the serving tier's per-request cost: one
// POST /form through the full handler — strict JSON decode, registry
// lookup, pooled-scratch FormInto on warm preference lists, JSON
// encode — with no network in the way (httptest request/recorder).
// The solve section inside it is pinned at 0 allocs/op by
// TestServerFormSteadyStateZeroAlloc; the allocs this benchmark
// reports are the JSON/HTTP envelope, which the bench-regression
// guard keeps from creeping.
func BenchmarkServerForm(b *testing.B) {
	ds := benchDataset(b, 10_000, 1_000)
	srv := NewServer(ServerConfig{})
	if err := srv.AddDataset("main", ds); err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"dataset":"main","k":5,"l":10,"semantics":"lm","agg":"min"}`)
	do := func() int {
		req := httptest.NewRequest("POST", "/form", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	for i := 0; i < 3; i++ { // warm the pref cache and scratch pool
		if code := do(); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

// benchRecorder is a reusable http.ResponseWriter: the header map and
// body buffer persist across requests so allocs/op measures the
// server, not the recorder.
type benchRecorder struct {
	hdr  http.Header
	body []byte
	code int
}

func (r *benchRecorder) Header() http.Header { return r.hdr }
func (r *benchRecorder) WriteHeader(c int)   { r.code = c }
func (r *benchRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

// BenchmarkServerFormBinary is BenchmarkServerForm's zero-copy
// counterpart: the same solve through the binary wire path —
// application/x-groupform-binary in and out, pooled body buffer,
// aliasing decode, arena-backed encode. allocs/op is the headline
// column; the zero-alloc guard pins it at <= 5 and the bench
// regression gate keeps both columns from creeping. Compare ns/op and
// B/op against BenchmarkServerForm for the envelope's price.
func BenchmarkServerFormBinary(b *testing.B) {
	ds := benchDataset(b, 10_000, 1_000)
	srv := NewServer(ServerConfig{})
	if err := srv.AddDataset("main", ds); err != nil {
		b.Fatal(err)
	}
	frame := wire.AppendFormRequest(nil, wire.FormRequest{
		Dataset: []byte("main"), K: 5, L: 10,
		Semantics: semantics.LM, Aggregation: semantics.Min,
	})
	body := bytes.NewReader(frame)
	req := httptest.NewRequest("POST", "/form", body)
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType)
	rec := &benchRecorder{hdr: make(http.Header)}
	do := func() {
		if _, err := body.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		rec.body, rec.code = rec.body[:0], 0
		srv.ServeHTTP(rec, req)
		if rec.code != 200 {
			b.Fatalf("status %d (%s)", rec.code, rec.body)
		}
	}
	for i := 0; i < 3; i++ { // warm the pref cache and both pools
		do()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}

// BenchmarkMetricsObserve is the per-request price of the
// observability layer's hot call: one histogram observation — a
// bucket index computation and two atomic adds — which the
// instrumented handler pays once per request. Must stay allocation-
// free and a few nanoseconds, or it has no business on the wire path.
func BenchmarkMetricsObserve(b *testing.B) {
	var h metrics.Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}
