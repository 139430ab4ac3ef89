package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/rank"
	"groupform/internal/semantics"
	"groupform/internal/synth"
)

// everyConfig lists the 24 request shapes the serving benchmark
// replays: both semantics, min/max/sum, K from 2 to 5.
func everyConfig(l int) []Config {
	var out []Config
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{semantics.Min, semantics.Max, semantics.Sum} {
			for k := 2; k <= 5; k++ {
				out = append(out, Config{K: k, L: l, Semantics: sem, Aggregation: agg})
			}
		}
	}
	return out
}

// planRun bucketizes ds under cfg and returns run()'s plan.
func planRun(t *testing.T, ds *dataset.Dataset, cfg Config, s *Scratch) []groupTask {
	t.Helper()
	prefs, err := rank.AllTopK(ds, cfg.K, cfg.Missing)
	if err != nil {
		t.Fatal(err)
	}
	s.begin()
	return s.plan(s.bucketize(prefs, cfg), cfg, ds.Users())
}

// TestComplementCostRule: on the sparse catalog at L=10 the remainder
// holds nearly every user, so the complement's excluded ratings plus
// its items×levels table undercut the remainder's ratings on every
// configuration; on the clustered catalog at L=50 the remainder is a
// minority and every heap-branch configuration stays forward. These
// are the catalogs of BenchmarkEngineForm and the serving benchmark.
func TestComplementCostRule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 10k-user catalogs")
	}
	sparse, err := synth.YahooLike(10_000, 1_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := synth.Generate(synth.Config{
		Users: 10_000, Items: 1_000, Clusters: 200,
		RatingsPerUser: 60, OrderCorrelation: 0.9, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	for _, c := range []struct {
		name       string
		ds         *dataset.Dataset
		l          int
		complement bool
	}{{"sparse", sparse, 10, true}, {"clustered", clustered, 50, false}} {
		heap := 0
		for _, cfg := range everyConfig(c.l) {
			tasks := planRun(t, c.ds, cfg, s)
			last := tasks[len(tasks)-1]
			if !last.merged {
				continue // split branch: no remainder
			}
			heap++
			if got := complementCheaper(c.ds, last.excluded); got != c.complement {
				t.Errorf("%s %s K=%d: remainder %d users, excluded %d: complement=%v, want %v",
					c.name, cfg.AlgorithmName(), cfg.K, len(last.members), len(last.excluded), got, c.complement)
			}
		}
		if heap == 0 {
			t.Fatalf("%s: no configuration took the heap branch", c.name)
		}
	}
}

// TestRemainderFromAssignment: run()'s remainder — one pass over the
// bucket assignment — lists exactly the members of the unselected
// buckets, ascending, the list FinalizeMerged's concatenate-and-sort
// builds from the same buckets; the excluded indices are every other
// user, and the complement scores the group as GroupTopK does.
func TestRemainderFromAssignment(t *testing.T) {
	ds, err := synth.YahooLike(1500, 200, 19)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	for _, cfg := range everyConfig(7) {
		label := fmt.Sprintf("%s K=%d", cfg.AlgorithmName(), cfg.K)
		tasks := planRun(t, ds, cfg, s)
		merged := tasks[len(tasks)-1]
		if !merged.merged {
			t.Fatalf("%s: no merged group", label)
		}
		// FinalizeMerged's plan over the same buckets: no assignment.
		p := s.part
		p.assign = nil
		want := NewScratch().plan(&p, cfg, nil)
		if !slices.Equal(merged.members, want[len(want)-1].members) {
			t.Fatalf("%s: assignment remainder differs from the sorted concatenation", label)
		}
		if len(merged.members)+len(merged.excluded) != ds.NumUsers() {
			t.Fatalf("%s: %d members + %d excluded != %d users", label, len(merged.members), len(merged.excluded), ds.NumUsers())
		}
		var selected []dataset.UserID
		for _, task := range tasks[:len(tasks)-1] {
			selected = append(selected, task.members...)
		}
		slices.Sort(selected)
		for i, r := range merged.excluded {
			if ds.UserAt(r) != selected[i] {
				t.Fatalf("%s: excluded[%d] = user %d, want %d", label, i, ds.UserAt(r), selected[i])
			}
		}
		o := &localOracle{sc: cfg.scorer(ds), s: s}
		gotItems, gotScores, err := mergedTopK(context.Background(), cfg, merged, o)
		if err != nil {
			t.Fatal(err)
		}
		wantItems, wantScores, err := cfg.scorer(ds).TopK(cfg.Semantics, merged.members, cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotItems, wantItems) || !slices.Equal(gotScores, wantScores) {
			t.Fatalf("%s: merged top-k %v %v, want %v %v", label, gotItems, gotScores, wantItems, wantScores)
		}
	}
}
