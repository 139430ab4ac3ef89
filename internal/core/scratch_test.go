package core

import (
	"context"
	"reflect"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/rank"
	"groupform/internal/semantics"
	"groupform/internal/synth"
)

// TestFreshScratchAllocsFlat: a fresh Scratch's first FormInto at
// n=10⁵ allocates its buffers, not its buckets. The bucket table is
// one array and the partition's per-bucket arrays double together, so
// configurations whose bucket counts differ 27-fold stay under one
// small bound and a few doublings apart, where the persistent intern
// table this scratch once had made one string per key (21,869
// allocations on LM-MIN).
func TestFreshScratchAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-user catalog")
	}
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool, which the scorer's accumulators come from")
	}
	ds, err := synth.YahooLike(100_000, 2_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	prefs, err := rank.AllTopK(ds, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const maxAllocs, maxSpread = 160, 64
	fewest, most := struct{ buckets, allocs int }{}, struct{ buckets, allocs int }{}
	for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
		cfg := Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: agg}
		var buckets int
		allocs := int(testing.AllocsPerRun(2, func() {
			res, err := FormInto(ctx, ds, cfg, prefs, NewScratch())
			if err != nil {
				t.Fatal(err)
			}
			buckets = res.Buckets
		}))
		if allocs > maxAllocs {
			t.Errorf("%s: a fresh scratch's first run made %d allocations over %d buckets, want at most %d", cfg.AlgorithmName(), allocs, buckets, maxAllocs)
		}
		if fewest.buckets == 0 || buckets < fewest.buckets {
			fewest.buckets, fewest.allocs = buckets, allocs
		}
		if buckets > most.buckets {
			most.buckets, most.allocs = buckets, allocs
		}
	}
	if most.buckets < 20*fewest.buckets {
		t.Fatalf("bucket counts %d..%d do not span the range the test needs", fewest.buckets, most.buckets)
	}
	if most.allocs-fewest.allocs > maxSpread {
		t.Fatalf("%d buckets took %d allocations and %d took %d: more than %d apart", fewest.buckets, fewest.allocs, most.buckets, most.allocs, maxSpread)
	}
}

// TestScratchRetainsLargestRun: a long-lived Scratch fed catalogs
// whose bucket keys never repeat — the same ratings under a fresh
// item numbering each time, as a stream of superseded catalogs would
// bring — retains what its largest run needed and nothing more, and
// forms what a fresh scratch forms.
func TestScratchRetainsLargestRun(t *testing.T) {
	base, err := synth.YahooLike(2000, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ratings []dataset.Rating
	for _, u := range base.Users() {
		for _, e := range base.UserRatings(u) {
			ratings = append(ratings, dataset.Rating{User: u, Item: e.Item, Value: e.Value})
		}
	}
	ctx := context.Background()
	s := NewScratch()
	var largest int
	for c := 0; c < 6; c++ {
		shifted := make([]dataset.Rating, len(ratings))
		for i, r := range ratings {
			r.Item += dataset.ItemID(c * 1_000)
			shifted[i] = r
		}
		ds, err := dataset.FromRatings(base.Scale(), shifted)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range everyConfig(10) {
			if _, err := FormInto(ctx, ds, cfg, nil, s); err != nil {
				t.Fatal(err)
			}
		}
		cfg := Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Sum}
		got, err := FormInto(ctx, ds, cfg, nil, s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FormInto(ctx, ds, cfg, nil, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("catalog %d: a long-lived scratch forms differently from a fresh one", c)
		}
		retained := retainedBytes(reflect.ValueOf(s), map[uintptr]bool{})
		if c == 0 {
			largest = retained
			continue
		}
		if retained > largest {
			t.Fatalf("catalog %d: scratch retains %d bytes, its largest run needed %d", c, retained, largest)
		}
	}
}

// retainedBytes sums the memory reachable from v: every slice's
// capacity, every string and map entry, following pointers once.
// Slices into one array are counted once per distinct start.
func retainedBytes(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return int(v.Type().Elem().Size()) + retainedBytes(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return retainedBytes(v.Elem(), seen)
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += retainedBytes(v.Field(i), seen)
		}
		return n
	case reflect.Array:
		n := 0
		for i := range v.Len() {
			n += retainedBytes(v.Index(i), seen)
		}
		return n
	case reflect.Slice:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := v.Cap() * int(v.Type().Elem().Size())
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Array, reflect.Slice, reflect.Map, reflect.String:
			for i := range v.Len() {
				n += retainedBytes(v.Index(i), seen)
			}
		}
		return n
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += int(v.Type().Key().Size()+v.Type().Elem().Size()) + retainedBytes(it.Key(), seen) + retainedBytes(it.Value(), seen)
		}
		return n
	case reflect.String:
		return v.Len()
	}
	return 0
}

// TestFormIntoSteadyStateZeroAlloc: a warm scratch bucketizes and
// finalizes without allocating on both branches — the path every
// request takes that has no cached partition (a slot's first request,
// weighted AV, an engine an ingest stream replaces before it fills).
// The sparse catalog at L=10 takes the heap branch; the clustered one
// at L=50 splits buckets into pieces (LM-MAX completes its pieces'
// lists through a top-k, LM-MIN rescores its strict pieces).
func TestFormIntoSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user catalogs")
	}
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool")
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
	ctx := context.Background()
	s := NewScratch()
	for _, c := range []struct {
		ds    *dataset.Dataset
		cfg   Config
		split bool
	}{
		{sparse, Config{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min}, false},
		{sparse, Config{K: 5, L: 10, Semantics: semantics.AV, Aggregation: semantics.Sum, UserWeights: map[dataset.UserID]float64{1: 2}}, false},
		{clustered, Config{K: 2, L: 50, Semantics: semantics.LM, Aggregation: semantics.Max}, true},
		{clustered, Config{K: 2, L: 50, Semantics: semantics.LM, Aggregation: semantics.Min}, true},
	} {
		prefs, err := rank.AllTopK(c.ds, c.cfg.K, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			res, err := FormInto(ctx, c.ds, c.cfg, prefs, s)
			if err != nil {
				t.Fatal(err)
			}
			if split := res.Buckets <= c.cfg.L; split != c.split {
				t.Fatalf("%s: %d buckets at L=%d, want split=%v", c.cfg.AlgorithmName(), res.Buckets, c.cfg.L, c.split)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := FormInto(ctx, c.ds, c.cfg, prefs, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s split=%v: warm FormInto allocated %v times per solve, want 0", c.cfg.AlgorithmName(), c.split, allocs)
		}
	}
}
