package groupform

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestFacadeEndToEnd drives the whole public API surface the way a
// downstream user would: build a dataset, form groups with GRD, the
// baseline, the exact solver and the IP through the registry, compare,
// and evaluate.
func TestFacadeEndToEnd(t *testing.T) {
	// Example 1 from the paper.
	ds, err := FromDense(DefaultScale, [][]float64{
		{1, 4, 3}, {2, 3, 5}, {2, 5, 1}, {2, 5, 1}, {3, 1, 1}, {1, 2, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 1, L: 3, Semantics: LM, Aggregation: Min}

	grd, err := solveOnce("grd", ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if grd.Objective != 11 {
		t.Errorf("GRD objective = %v, want 11", grd.Objective)
	}

	ex, err := solveOnce("exact", ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Objective != 12 {
		t.Errorf("exact objective = %v, want 12", ex.Objective)
	}

	ls, err := solveOnce("ls", ds, cfg, WithLSOptions(LSOptions{Iterations: 2000, Restarts: 2, Seed: 1, Anneal: true}))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Objective < grd.Objective || ls.Objective > ex.Objective {
		t.Errorf("local search objective %v outside [%v,%v]", ls.Objective, grd.Objective, ex.Objective)
	}

	ip, err := solveOnce("ip", ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Objective != 12 || len(ip.Groups) != 3 {
		t.Errorf("IP = %v with %d groups, want 12 with 3", ip.Objective, len(ip.Groups))
	}

	base, err := solveOnce("baseline-kendall", ds, cfg, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Objective > ex.Objective {
		t.Errorf("baseline %v beats exact optimum %v", base.Objective, ex.Objective)
	}

	if _, err := AvgGroupSatisfaction(grd); err != nil {
		t.Errorf("AvgGroupSatisfaction: %v", err)
	}
	if _, err := GroupSizeSummary(grd); err != nil {
		t.Errorf("GroupSizeSummary: %v", err)
	}
	sat, err := PerUserSatisfaction(ds, grd, 0)
	if err != nil || len(sat) != 6 {
		t.Errorf("PerUserSatisfaction: %v (%d entries)", err, len(sat))
	}
	if _, err := MeanNDCG(ds, grd, 0); err != nil {
		t.Errorf("MeanNDCG: %v", err)
	}
}

func TestFacadeSynthAndCF(t *testing.T) {
	sparse, err := Generate(SynthConfig{Users: 40, Items: 20, Clusters: 4, RatingsPerUser: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewUserKNN(sparse, 5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Densify(sparse, p)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumRatings() != full.NumUsers()*full.NumItems() {
		t.Fatal("densify did not complete the matrix")
	}
	res, err := solveOnce("grd", full, Config{K: 5, L: 4, Semantics: AV, Aggregation: Sum})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective <= 0 {
		t.Errorf("objective = %v", res.Objective)
	}

	if _, err := NewItemKNN(sparse, 5); err != nil {
		t.Errorf("item kNN: %v", err)
	}
	if _, err := NewMF(sparse, MFConfig{Epochs: 2, Seed: 1}); err != nil {
		t.Errorf("MF: %v", err)
	}
	if _, err := YahooLike(30, 20, 1); err != nil {
		t.Errorf("YahooLike: %v", err)
	}
	if _, err := MovieLensLike(30, 20, 1); err != nil {
		t.Errorf("MovieLensLike: %v", err)
	}
}

func TestFacadeIO(t *testing.T) {
	b := NewBuilder(DefaultScale)
	b.MustAdd(1, 2, 4.5)
	ds := b.Build()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(&buf, DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Rating(1, 2); !ok || v != 4.5 {
		t.Errorf("round trip: %v %v", v, ok)
	}
	ml, err := LoadMovieLens(strings.NewReader("1::2::3::0\n"), DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if ml.NumRatings() != 1 {
		t.Error("movielens load failed")
	}
	if _, err := FromRatings(DefaultScale, []Rating{{User: 1, Item: 1, Value: 3}}); err != nil {
		t.Errorf("FromRatings: %v", err)
	}
}

func TestWeightedAggregationThroughFacade(t *testing.T) {
	ds, err := FromDense(DefaultScale, [][]float64{
		{5, 4, 3}, {5, 4, 3}, {1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []Aggregation{WeightedSumPos, WeightedSumLog} {
		res, err := solveOnce("grd", ds, Config{K: 2, L: 2, Semantics: LM, Aggregation: agg})
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		if res.Objective <= 0 {
			t.Errorf("%v objective = %v", agg, res.Objective)
		}
	}
}

// TestParallelFormThroughFacade exercises the Workers option on the
// public API: parallel runs must reproduce the serial result exactly,
// for both semantics, including the negative all-CPUs setting.
func TestParallelFormThroughFacade(t *testing.T) {
	ds, err := YahooLike(1200, 150, 29)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []Semantics{LM, AV} {
		cfg := Config{K: 5, L: 10, Semantics: sem, Aggregation: Min}
		serial, err := solveOnce("grd", ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 8, -1} {
			c := cfg
			c.Workers = w
			got, err := solveOnce("grd", ds, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, got) {
				t.Fatalf("%v workers=%d: parallel result differs from serial", sem, w)
			}
		}
	}
}
