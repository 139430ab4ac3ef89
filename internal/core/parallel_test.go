package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/semantics"
	"groupform/internal/synth"
)

// requireSameResult fails unless a and b are deep-equal, including
// bitwise-equal float scores — the parallel pipeline's contract.
func requireSameResult(t *testing.T, label string, serial, parallel *Result) {
	t.Helper()
	if serial.Algorithm != parallel.Algorithm {
		t.Fatalf("%s: algorithm %q != %q", label, parallel.Algorithm, serial.Algorithm)
	}
	if serial.Buckets != parallel.Buckets {
		t.Fatalf("%s: buckets %d != %d", label, parallel.Buckets, serial.Buckets)
	}
	if serial.Objective != parallel.Objective {
		t.Fatalf("%s: objective %v != %v", label, parallel.Objective, serial.Objective)
	}
	if len(serial.Groups) != len(parallel.Groups) {
		t.Fatalf("%s: %d groups != %d", label, len(parallel.Groups), len(serial.Groups))
	}
	for i := range serial.Groups {
		if !reflect.DeepEqual(serial.Groups[i], parallel.Groups[i]) {
			t.Fatalf("%s: group %d differs:\nserial:   %+v\nparallel: %+v",
				label, i, serial.Groups[i], parallel.Groups[i])
		}
	}
}

// parallelCorpus returns datasets that exercise both Form branches:
// the sparse synthetic workloads (many buckets > L, heap branch) and
// a clustered dense set small enough that buckets <= L (split
// branch).
func parallelCorpus(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	yahoo, err := synth.YahooLike(3000, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	movie, err := synth.MovieLensLike(2000, 300, 12)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := synth.Generate(synth.Config{Users: 120, Items: 40, Clusters: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dataset.Dataset{
		"yahoo":     yahoo,
		"movielens": movie,
		"clustered": clustered,
	}
}

// TestFormParallelMatchesSerial is the pipeline's determinism
// contract: for every dataset, semantics, aggregation and worker
// count, the parallel result is byte-identical to the serial one.
func TestFormParallelMatchesSerial(t *testing.T) {
	for name, ds := range parallelCorpus(t) {
		for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
			for _, agg := range []semantics.Aggregation{
				semantics.Max, semantics.Min, semantics.Sum, semantics.WeightedSumLog,
			} {
				cfg := Config{K: 5, L: 10, Semantics: sem, Aggregation: agg}
				serial, err := Form(context.Background(), ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 8} {
					c := cfg
					c.Workers = w
					got, err := Form(context.Background(), ds, c)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/%s-%s/workers=%d", name, sem, agg, w)
					requireSameResult(t, label, serial, got)
				}
			}
		}
	}
}

// TestFormParallelNonDyadic runs the same byte comparison on a 0.1
// rating grid with a nonzero Missing, where an AV sum taken in another
// order can round differently: every worker count must still give the
// serial bits. The catalog has 9 buckets under every key, so L=6 takes
// the heap branch and L=40 the split branch.
func TestFormParallelNonDyadic(t *testing.T) {
	ds := nonDyadicDataset(t)
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{
			semantics.Max, semantics.Min, semantics.Sum, semantics.WeightedSumLog,
		} {
			for _, l := range []int{6, 40} {
				cfg := Config{K: 3, L: l, Semantics: sem, Aggregation: agg, Missing: 0.05}
				serial, err := Form(context.Background(), ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 8} {
					c := cfg
					c.Workers = w
					got, err := Form(context.Background(), ds, c)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s-%s/l=%d/buckets=%d/workers=%d", sem, agg, l, serial.Buckets, w)
					requireSameResult(t, label, serial, got)
				}
			}
		}
	}
}

// TestFormParallelSplitBranch drives the buckets <= L branch (piece
// splitting) explicitly with a group budget above the bucket count.
func TestFormParallelSplitBranch(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Users: 200, Items: 30, Clusters: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		cfg := Config{K: 3, L: 150, Semantics: sem, Aggregation: semantics.Min}
		serial, err := Form(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Buckets > cfg.L {
			t.Fatalf("want split branch, got %d buckets > L=%d", serial.Buckets, cfg.L)
		}
		for _, w := range []int{2, 8} {
			c := cfg
			c.Workers = w
			got, err := Form(context.Background(), ds, c)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%s/workers=%d", sem, w), serial, got)
		}
	}
}

// TestFormParallelWeighted covers the weighted-AV fold, whose merge
// replays weighted sums member by member.
func TestFormParallelWeighted(t *testing.T) {
	ds, err := synth.YahooLike(1500, 200, 19)
	if err != nil {
		t.Fatal(err)
	}
	weights := make(map[dataset.UserID]float64)
	for i, u := range ds.Users() {
		switch i % 3 {
		case 0:
			weights[u] = 0.5
		case 1:
			weights[u] = 2
		}
	}
	cfg := Config{K: 4, L: 8, Semantics: semantics.AV, Aggregation: semantics.Sum, UserWeights: weights}
	serial, err := Form(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		c := cfg
		c.Workers = w
		got, err := Form(context.Background(), ds, c)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("weighted/workers=%d", w), serial, got)
	}
}

// TestFormParallelPaperExamples pins the parallel path to the
// paper's worked Example 1 outputs (the serial tests' ground truth).
func TestFormParallelPaperExamples(t *testing.T) {
	ds := example1(t)
	for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
		for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
			cfg := Config{K: 1, L: 3, Semantics: sem, Aggregation: agg}
			serial, err := Form(context.Background(), ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Workers = 4
			got, err := Form(context.Background(), ds, c)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("example1/%s-%s", sem, agg), serial, got)
		}
	}
}
