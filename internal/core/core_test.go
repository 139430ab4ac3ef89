package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"groupform/internal/dataset"
	"groupform/internal/semantics"
)

// The paper's running examples. Users u1..u6 are IDs 0..5, items
// i1..i3 are IDs 0..2.

func example1(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.FromDense(dataset.DefaultScale, [][]float64{
		{1, 4, 3}, // u1
		{2, 3, 5}, // u2
		{2, 5, 1}, // u3
		{2, 5, 1}, // u4
		{3, 1, 1}, // u5
		{1, 2, 5}, // u6
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func example2(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.FromDense(dataset.DefaultScale, [][]float64{
		{3, 1, 4}, // u1
		{1, 4, 3}, // u2
		{2, 5, 1}, // u3
		{2, 5, 1}, // u4
		{1, 2, 3}, // u5
		{3, 2, 1}, // u6
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func example5(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.FromDense(dataset.DefaultScale, [][]float64{
		{1, 4, 3}, // u1
		{2, 3, 5}, // u2
		{2, 5, 1}, // u3
		{2, 5, 1}, // u4
		{2, 4, 3}, // u5
		{1, 2, 5}, // u6
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func members(g Group) []int {
	out := make([]int, len(g.Members))
	for i, u := range g.Members {
		out[i] = int(u)
	}
	return out
}

// TestGRDLMMinExample1K1 reproduces Section 4.1's walk-through for
// k=1, l=3: groups {u3,u4}(5), {u2,u6}(5), {u1,u5}(1); Obj = 11.
func TestGRDLMMinExample1K1(t *testing.T) {
	res, err := Form(context.Background(), example1(t), Config{K: 1, L: 3, Semantics: semantics.LM, Aggregation: semantics.Min})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 11 {
		t.Fatalf("Obj = %v, want 11", res.Objective)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Groups))
	}
	if !reflect.DeepEqual(members(res.Groups[0]), []int{2, 3}) {
		t.Errorf("group 1 = %v, want {u3,u4}", members(res.Groups[0]))
	}
	if res.Groups[0].Satisfaction != 5 {
		t.Errorf("group 1 satisfaction = %v, want 5", res.Groups[0].Satisfaction)
	}
	if !reflect.DeepEqual(members(res.Groups[1]), []int{1, 5}) {
		t.Errorf("group 2 = %v, want {u2,u6}", members(res.Groups[1]))
	}
	if res.Groups[1].Satisfaction != 5 {
		t.Errorf("group 2 satisfaction = %v, want 5", res.Groups[1].Satisfaction)
	}
	if !reflect.DeepEqual(members(res.Groups[2]), []int{0, 4}) {
		t.Errorf("group 3 = %v, want {u1,u5}", members(res.Groups[2]))
	}
	if res.Groups[2].Satisfaction != 1 {
		t.Errorf("group 3 satisfaction = %v, want 1", res.Groups[2].Satisfaction)
	}
	if !res.Groups[2].Merged {
		t.Error("last group should be the merged remainder")
	}
	// The paper forms 4 intermediate groups for k=1.
	if res.Buckets != 4 {
		t.Errorf("buckets = %d, want 4", res.Buckets)
	}
	if res.Algorithm != "GRD-LM-MIN" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
}

// TestGRDLMMinExample1K2 reproduces the k=2 walk-through: groups
// {u1}(3), {u2}(3), {u3,u4,u5,u6}(1); Obj = 7; five intermediate
// groups.
func TestGRDLMMinExample1K2(t *testing.T) {
	res, err := Form(context.Background(), example1(t), Config{K: 2, L: 3, Semantics: semantics.LM, Aggregation: semantics.Min})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 7 {
		t.Fatalf("Obj = %v, want 7", res.Objective)
	}
	if res.Buckets != 5 {
		t.Errorf("buckets = %d, want 5", res.Buckets)
	}
	if !reflect.DeepEqual(members(res.Groups[0]), []int{0}) {
		t.Errorf("group 1 = %v, want {u1}", members(res.Groups[0]))
	}
	if !reflect.DeepEqual(members(res.Groups[1]), []int{1}) {
		t.Errorf("group 2 = %v, want {u2}", members(res.Groups[1]))
	}
	if !reflect.DeepEqual(members(res.Groups[2]), []int{2, 3, 4, 5}) {
		t.Errorf("group 3 = %v, want {u3,u4,u5,u6}", members(res.Groups[2]))
	}
	if res.Groups[2].Satisfaction != 1 {
		t.Errorf("merged satisfaction = %v, want 1", res.Groups[2].Satisfaction)
	}
}

// TestGRDLMSumExample1K2 reproduces Section 4.2: groups {u2}(8),
// {u3,u4}(7), {u1,u5,u6}(2); Obj = 17.
func TestGRDLMSumExample1K2(t *testing.T) {
	res, err := Form(context.Background(), example1(t), Config{K: 2, L: 3, Semantics: semantics.LM, Aggregation: semantics.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 17 {
		t.Fatalf("Obj = %v, want 17", res.Objective)
	}
	if !reflect.DeepEqual(members(res.Groups[0]), []int{1}) {
		t.Errorf("group 1 = %v, want {u2}", members(res.Groups[0]))
	}
	if res.Groups[0].Satisfaction != 8 {
		t.Errorf("group 1 satisfaction = %v, want 5+3", res.Groups[0].Satisfaction)
	}
	if !reflect.DeepEqual(members(res.Groups[1]), []int{2, 3}) {
		t.Errorf("group 2 = %v, want {u3,u4}", members(res.Groups[1]))
	}
	if res.Groups[1].Satisfaction != 7 {
		t.Errorf("group 2 satisfaction = %v, want 5+2", res.Groups[1].Satisfaction)
	}
	if !reflect.DeepEqual(members(res.Groups[2]), []int{0, 4, 5}) {
		t.Errorf("group 3 = %v, want {u1,u5,u6}", members(res.Groups[2]))
	}
	if res.Groups[2].Satisfaction != 2 {
		t.Errorf("group 3 satisfaction = %v, want 1+1", res.Groups[2].Satisfaction)
	}
}

// TestGRDLMSumHashesOnAllScores verifies the GRD-LM-SUM hashing rule:
// u3 and u4 share top-2 (i2:5, i1:2) and land in one bucket, while in
// Example 1 u2 and u6 share the top-2 *sequence* (i3;i2) but differ on
// the bottom score (3 vs 2), so for k=2 they must not be bucketed
// together under either LM algorithm.
func TestGRDLMSumHashesOnAllScores(t *testing.T) {
	for _, agg := range []semantics.Aggregation{semantics.Min, semantics.Sum} {
		res, err := Form(context.Background(), example1(t), Config{K: 2, L: 6, Semantics: semantics.LM, Aggregation: agg})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			ms := members(g)
			if len(ms) == 2 && ms[0] == 1 && ms[1] == 5 {
				t.Errorf("%v: u2 and u6 must not share a bucket for k=2", agg)
			}
		}
	}
}

// TestGRDAVMinExample2 reproduces Section 5's walk-through: k=2, l=2,
// groups {u3,u4}(4) and {u1,u2,u5,u6}(9, list (i3;i2)); Obj = 13.
func TestGRDAVMinExample2(t *testing.T) {
	res, err := Form(context.Background(), example2(t), Config{K: 2, L: 2, Semantics: semantics.AV, Aggregation: semantics.Min})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 13 {
		t.Fatalf("Obj = %v, want 13", res.Objective)
	}
	if !reflect.DeepEqual(members(res.Groups[0]), []int{2, 3}) {
		t.Errorf("group 1 = %v, want {u3,u4}", members(res.Groups[0]))
	}
	if res.Groups[0].Satisfaction != 4 {
		t.Errorf("group 1 satisfaction = %v, want 4", res.Groups[0].Satisfaction)
	}
	g2 := res.Groups[1]
	if !reflect.DeepEqual(members(g2), []int{0, 1, 4, 5}) {
		t.Errorf("group 2 = %v, want {u1,u2,u5,u6}", members(g2))
	}
	if g2.Satisfaction != 9 {
		t.Errorf("group 2 satisfaction = %v, want 9", g2.Satisfaction)
	}
	// Recommended list (i3, i2) = items (2, 1).
	if g2.Items[0] != 2 || g2.Items[1] != 1 {
		t.Errorf("group 2 list = %v, want (i3;i2)", g2.Items)
	}
	// AV bucketing ignores scores: 5 buckets here, fewer than or
	// equal to what LM would produce.
	if res.Buckets != 5 {
		t.Errorf("buckets = %d, want 5", res.Buckets)
	}
}

// TestGRDAVSumExample2 reproduces the Sum variant: same groups, Obj =
// 14 + 20 = 34.
func TestGRDAVSumExample2(t *testing.T) {
	res, err := Form(context.Background(), example2(t), Config{K: 2, L: 2, Semantics: semantics.AV, Aggregation: semantics.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 34 {
		t.Fatalf("Obj = %v, want 34", res.Objective)
	}
	if res.Groups[0].Satisfaction != 14 {
		t.Errorf("group 1 satisfaction = %v, want 14", res.Groups[0].Satisfaction)
	}
	if res.Groups[1].Satisfaction != 20 {
		t.Errorf("group 2 satisfaction = %v, want 20", res.Groups[1].Satisfaction)
	}
}

// TestGRDLMSumExample5 reproduces Appendix B: GRD-LM-SUM forms
// {u2}(8), {u3,u4}(7), {u1,u5,u6}(5) for Obj = 20 (optimum is 21).
func TestGRDLMSumExample5(t *testing.T) {
	res, err := Form(context.Background(), example5(t), Config{K: 2, L: 3, Semantics: semantics.LM, Aggregation: semantics.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 20 {
		t.Fatalf("Obj = %v, want 20", res.Objective)
	}
	if !reflect.DeepEqual(members(res.Groups[0]), []int{1}) {
		t.Errorf("group 1 = %v, want {u2}", members(res.Groups[0]))
	}
	if !reflect.DeepEqual(members(res.Groups[1]), []int{2, 3}) {
		t.Errorf("group 2 = %v, want {u3,u4}", members(res.Groups[1]))
	}
	if !reflect.DeepEqual(members(res.Groups[2]), []int{0, 4, 5}) {
		t.Errorf("group 3 = %v, want {u1,u5,u6}", members(res.Groups[2]))
	}
	if res.Groups[2].Satisfaction != 5 {
		t.Errorf("merged satisfaction = %v, want 3+2", res.Groups[2].Satisfaction)
	}
}

func TestConfigValidate(t *testing.T) {
	ds := example1(t)
	good := Config{K: 1, L: 2, Semantics: semantics.LM, Aggregation: semantics.Min}
	if err := good.Validate(ds); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{K: 0, L: 2, Semantics: semantics.LM, Aggregation: semantics.Min},
		{K: 9, L: 2, Semantics: semantics.LM, Aggregation: semantics.Min},
		{K: 1, L: 0, Semantics: semantics.LM, Aggregation: semantics.Min},
		{K: 1, L: 2, Semantics: semantics.Semantics(9), Aggregation: semantics.Min},
		{K: 1, L: 2, Semantics: semantics.LM, Aggregation: semantics.Aggregation(9)},
		// Non-finite parameters would form groups with NaN or infinite
		// scores.
		{K: 1, L: 2, Semantics: semantics.AV, Aggregation: semantics.Sum, Missing: math.NaN()},
		{K: 1, L: 2, Semantics: semantics.AV, Aggregation: semantics.Sum, Missing: math.Inf(1)},
		{K: 1, L: 2, Semantics: semantics.AV, Aggregation: semantics.Sum, Missing: math.Inf(-1)},
		{K: 1, L: 2, Semantics: semantics.AV, Aggregation: semantics.Sum, UserWeights: map[dataset.UserID]float64{1: math.NaN()}},
		{K: 1, L: 2, Semantics: semantics.AV, Aggregation: semantics.Sum, UserWeights: map[dataset.UserID]float64{1: math.Inf(1)}},
		{K: 1, L: 2, Semantics: semantics.AV, Aggregation: semantics.Sum, Anytime: true, QualityTarget: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(ds); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := good.Validate(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := Form(context.Background(), nil, good); err == nil {
		t.Error("Form(nil) should error")
	}
}

func TestAlgorithmNames(t *testing.T) {
	c := Config{Semantics: semantics.AV, Aggregation: semantics.Sum}
	if c.AlgorithmName() != "GRD-AV-SUM" {
		t.Errorf("name = %q", c.AlgorithmName())
	}
}

func TestSingleGroup(t *testing.T) {
	// l=1 merges everyone immediately.
	res, err := Form(context.Background(), example1(t), Config{K: 1, L: 1, Semantics: semantics.LM, Aggregation: semantics.Min})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Size() != 6 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	// LM top-1 of all six users: every item's min is 1.
	if res.Objective != 1 {
		t.Errorf("Obj = %v, want 1", res.Objective)
	}
}

func TestMoreGroupsThanBuckets(t *testing.T) {
	// With l >= n the optimum is all singletons, each scoring the
	// user's personal best: for Example 1 at k=1 that is
	// 4+5+5+5+3+5 = 27. The surplus group budget must be spent
	// splitting buckets (see Scratch.plan); stopping at the 4 whole
	// buckets would score only 17 and break the rmax error bound.
	res, err := Form(context.Background(), example1(t), Config{K: 1, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 6 {
		t.Fatalf("groups = %d, want 6 singletons", len(res.Groups))
	}
	if res.Objective != 27 {
		t.Errorf("Obj = %v, want 27", res.Objective)
	}
	for _, g := range res.Groups {
		if g.Merged {
			t.Error("no merged group expected when buckets <= l")
		}
	}
}

func TestSplitBucketsPartialBudget(t *testing.T) {
	// Example 1, k=1 has 4 buckets: {u3,u4}:5, {u2,u6}:5, {u1}:4,
	// {u5}:3. With l=5 the single surplus slot must split the best
	// splittable bucket ({u3,u4}), yielding 5+5+5+4+3 = 22.
	res, err := Form(context.Background(), example1(t), Config{K: 1, L: 5, Semantics: semantics.LM, Aggregation: semantics.Min})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 5 {
		t.Fatalf("groups = %d, want 5", len(res.Groups))
	}
	if res.Objective != 22 {
		t.Errorf("Obj = %v, want 22", res.Objective)
	}
}

func TestSplitBucketsNeutralForAV(t *testing.T) {
	// Under AV, splitting a bucket leaves the total satisfaction
	// unchanged: the objective with l=n must equal the objective
	// with l=#buckets when no merge happens either way.
	ds := example2(t)
	atBuckets, err := Form(context.Background(), ds, Config{K: 2, L: 5, Semantics: semantics.AV, Aggregation: semantics.Sum})
	if err != nil {
		t.Fatal(err)
	}
	allSplit, err := Form(context.Background(), ds, Config{K: 2, L: 6, Semantics: semantics.AV, Aggregation: semantics.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if atBuckets.Objective != allSplit.Objective {
		t.Errorf("AV split changed objective: %v vs %v", atBuckets.Objective, allSplit.Objective)
	}
}

func TestGRDLMMaxGrouping(t *testing.T) {
	// GRD-LM-MAX on Example 1 with k=1 coincides with GRD-LM-MIN
	// (Max=Min=Sum at k=1).
	resMax, err := Form(context.Background(), example1(t), Config{K: 1, L: 3, Semantics: semantics.LM, Aggregation: semantics.Max})
	if err != nil {
		t.Fatal(err)
	}
	resMin, err := Form(context.Background(), example1(t), Config{K: 1, L: 3, Semantics: semantics.LM, Aggregation: semantics.Min})
	if err != nil {
		t.Fatal(err)
	}
	if resMax.Objective != resMin.Objective {
		t.Errorf("k=1 Max (%v) and Min (%v) objectives differ", resMax.Objective, resMin.Objective)
	}
}

func TestAVBucketsAtMostLMBuckets(t *testing.T) {
	// Section 5, observation (1): AV hashes only the sequence, so it
	// generates at most as many buckets as LM.
	for _, ds := range []*dataset.Dataset{example1(t), example2(t), example5(t)} {
		for k := 1; k <= 3; k++ {
			av, err := Form(context.Background(), ds, Config{K: k, L: 2, Semantics: semantics.AV, Aggregation: semantics.Min})
			if err != nil {
				t.Fatal(err)
			}
			lm, err := Form(context.Background(), ds, Config{K: k, L: 2, Semantics: semantics.LM, Aggregation: semantics.Min})
			if err != nil {
				t.Fatal(err)
			}
			if av.Buckets > lm.Buckets {
				t.Errorf("k=%d: AV buckets %d > LM buckets %d", k, av.Buckets, lm.Buckets)
			}
		}
	}
}

func randomDense(rng *rand.Rand, n, m int) *dataset.Dataset {
	rows := make([][]float64, n)
	for u := range rows {
		rows[u] = make([]float64, m)
		for i := range rows[u] {
			rows[u][i] = float64(1 + rng.Intn(5))
		}
	}
	ds, err := dataset.FromDense(dataset.DefaultScale, rows)
	if err != nil {
		panic(err)
	}
	return ds
}

// TestFormPartitionProperty checks, on random instances and all six
// algorithm variants, that Form returns a disjoint cover of the users
// with at most L groups, each with a valid k-item list, and that the
// reported objective equals the sum of group satisfactions.
func TestFormPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(12), 2+rng.Intn(6)
		ds := randomDense(rng, n, m)
		k := 1 + rng.Intn(m)
		l := 1 + rng.Intn(n)
		for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
			for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
				res, err := Form(context.Background(), ds, Config{K: k, L: l, Semantics: sem, Aggregation: agg})
				if err != nil {
					return false
				}
				if len(res.Groups) > l {
					return false
				}
				seen := map[dataset.UserID]bool{}
				total := 0.0
				for _, g := range res.Groups {
					if g.Size() == 0 || len(g.Items) != k || len(g.ItemScores) != k {
						return false
					}
					for _, u := range g.Members {
						if seen[u] {
							return false
						}
						seen[u] = true
					}
					total += g.Satisfaction
				}
				if len(seen) != n {
					return false
				}
				if math.Abs(total-res.Objective) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBucketSatisfactionMatchesScorer verifies the central claim
// behind the greedy algorithms: for every non-merged group, the
// satisfaction computed from the shared bucket sequence equals the
// satisfaction of a from-scratch group top-k computation.
func TestBucketSatisfactionMatchesScorer(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(12), 2+rng.Intn(6)
		ds := randomDense(rng, n, m)
		k := 1 + rng.Intn(m)
		l := 1 + rng.Intn(n)
		sc := semantics.Scorer{DS: ds}
		for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
			for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
				res, err := Form(context.Background(), ds, Config{K: k, L: l, Semantics: sem, Aggregation: agg})
				if err != nil {
					return false
				}
				for _, g := range res.Groups {
					want, err := sc.Satisfaction(sem, agg, g.Members, k)
					if err != nil {
						return false
					}
					if math.Abs(want-g.Satisfaction) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestK1AggregationsCoincide verifies Section 2.3's remark at the
// algorithm level: when k = 1, Max, Min and Sum aggregation produce
// identical objectives under both semantics, on random instances.
func TestK1AggregationsCoincide(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(12), 2+rng.Intn(6)
		ds := randomDense(rng, n, m)
		l := 1 + rng.Intn(n)
		for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
			var objs []float64
			for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
				res, err := Form(context.Background(), ds, Config{K: 1, L: l, Semantics: sem, Aggregation: agg})
				if err != nil {
					return false
				}
				objs = append(objs, res.Objective)
			}
			if math.Abs(objs[0]-objs[1]) > 1e-9 || math.Abs(objs[1]-objs[2]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestObjectiveMonotoneInL checks the paper's observation that the
// objective is maximized when all l groups are formed: allowing more
// groups never hurts the greedy objective.
func TestObjectiveMonotoneInL(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n, m := 4+rng.Intn(10), 2+rng.Intn(5)
		ds := randomDense(rng, n, m)
		k := 1 + rng.Intn(m)
		prev := math.Inf(-1)
		for l := 1; l <= n; l++ {
			res, err := Form(context.Background(), ds, Config{K: k, L: l, Semantics: semantics.LM, Aggregation: semantics.Min})
			if err != nil {
				t.Fatal(err)
			}
			if res.Objective < prev-1e-9 {
				t.Fatalf("objective decreased from %v to %v at l=%d", prev, res.Objective, l)
			}
			prev = res.Objective
		}
	}
}
