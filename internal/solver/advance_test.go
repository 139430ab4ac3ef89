package solver

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/semantics"
)

// advanceDS builds the small fixed dataset the Advance tests mutate:
// four users with two ratings each, so k=2 lists need no padding.
func advanceDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.FromRatings(dataset.DefaultScale, []dataset.Rating{
		{User: 1, Item: 1, Value: 5}, {User: 1, Item: 2, Value: 3},
		{User: 2, Item: 1, Value: 2}, {User: 2, Item: 3, Value: 4},
		{User: 3, Item: 2, Value: 4}, {User: 3, Item: 3, Value: 1},
		{User: 4, Item: 1, Value: 3}, {User: 4, Item: 2, Value: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// wantStats asserts one exact counter snapshot; the Advance tests pin
// the whole hit/build/patch/reuse sequence, not just monotonicity.
func wantStats(t *testing.T, e *Engine, tag string, want EngineStats) {
	t.Helper()
	if got := e.Stats(); got != want {
		t.Fatalf("%s: stats = %+v, want %+v", tag, got, want)
	}
}

// TestAdvanceStatsSequence drives one engine chain through a partial
// invalidation, a compaction rebind and a full invalidation,
// asserting the exact EngineStats after every step: the preference
// counters, and the partition counters of one LM-SUM slot that fills
// on its second request, drops on an upsert and rides a compaction.
func TestAdvanceStatsSequence(t *testing.T) {
	ctx := context.Background()
	ds := advanceDS(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 2, L: 4, Semantics: semantics.LM, Aggregation: semantics.Min}
	if _, err := eng.Form(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Aggregation = semantics.Sum // same (K, Missing) slot, another partition kind
	if _, err := eng.Form(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	wantStats(t, eng, "warm base", EngineStats{PrefBuilds: 1, PrefHits: 1})
	form := func(e *Engine) {
		t.Helper()
		if _, err := e.Form(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	form(eng) // the LM-SUM partition's second request fills it
	wantStats(t, eng, "partition filled", EngineStats{PrefBuilds: 1, PrefHits: 2, PartitionBuilds: 1})
	form(eng)
	wantStats(t, eng, "partition hit", EngineStats{PrefBuilds: 1, PrefHits: 3, PartitionBuilds: 1, PartitionHits: 1})

	// Re-rate one of user 2's existing items: exactly one dirty row,
	// no new users or items. The partition drops with it.
	ds2, res, err := ds.Upsert([]dataset.Rating{{User: 2, Item: 3, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := eng.Advance(ds2, res)
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, eng2, "after upsert", EngineStats{
		PrefBuilds: 1, PrefHits: 3, PartitionBuilds: 1, PartitionHits: 1,
		PartialInvalidations: 1, RowsPatched: 1, RowsReused: 3,
	})
	// The receiver keeps its own counters.
	wantStats(t, eng, "old engine untouched", EngineStats{PrefBuilds: 1, PrefHits: 3, PartitionBuilds: 1, PartitionHits: 1})
	// The carried lists serve the derived engine without a rebuild; its
	// partition refills on the second request.
	form(eng2)
	form(eng2)
	wantStats(t, eng2, "warm after upsert", EngineStats{
		PrefBuilds: 1, PrefHits: 5, PartitionBuilds: 2, PartitionHits: 1,
		PartialInvalidations: 1, RowsPatched: 1, RowsReused: 3,
	})

	// Compaction is a pure rebind: zero patched rows, every row
	// reused, no new partial invalidation, and the partition carried.
	eng3, err := eng2.Advance(ds2.Compact(), dataset.UpsertResult{})
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, eng3, "after compaction", EngineStats{
		PrefBuilds: 1, PrefHits: 5, PartitionBuilds: 2, PartitionHits: 1,
		PartialInvalidations: 1, RowsPatched: 1, RowsReused: 7,
	})
	form(eng3)
	wantStats(t, eng3, "warm after compaction", EngineStats{
		PrefBuilds: 1, PrefHits: 6, PartitionBuilds: 2, PartitionHits: 2,
		PartialInvalidations: 1, RowsPatched: 1, RowsReused: 7,
	})

	// A mid-range new user renumbers the index space: the whole cache
	// drops, and the next Form pays a fresh build.
	ds4, res4, err := eng3.Dataset().Upsert([]dataset.Rating{{User: 3, Item: 1, Value: 2}, {User: 2, Item: 2, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Rebuilt {
		t.Fatalf("appendable-range batch reported Rebuilt: %+v", res4)
	}
	dsMid, resMid, err := ds4.Upsert([]dataset.Rating{{User: 0, Item: 1, Value: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !resMid.Rebuilt {
		t.Fatalf("mid-range user did not report Rebuilt: %+v", resMid)
	}
	eng4, err := eng3.Advance(ds4, res4)
	if err != nil {
		t.Fatal(err)
	}
	eng5, err := eng4.Advance(dsMid, resMid)
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, eng5, "after rebuild", EngineStats{
		PrefBuilds: 1, PrefHits: 6, PartitionBuilds: 2, PartitionHits: 2, FullInvalidations: 1,
		PartialInvalidations: 2, RowsPatched: 3, RowsReused: 9,
	})
	form(eng5)
	wantStats(t, eng5, "cold after rebuild", EngineStats{
		PrefBuilds: 2, PrefHits: 6, PartitionBuilds: 2, PartitionHits: 2, FullInvalidations: 1,
		PartialInvalidations: 2, RowsPatched: 3, RowsReused: 9,
	})
}

// TestAdvancePointerIdentity is the satellite guard: across an
// upsert, an untouched user's cached PrefList must be carried over
// verbatim — same backing arrays, not an equal rebuild — while the
// dirty row gets fresh storage.
func TestAdvancePointerIdentity(t *testing.T) {
	ctx := context.Background()
	// User 4 has a single rating: its k=2 list is padded, so it is
	// the row a catalog-widening upsert must still carry.
	ds, err := dataset.FromRatings(dataset.DefaultScale, []dataset.Rating{
		{User: 1, Item: 1, Value: 5}, {User: 1, Item: 2, Value: 3},
		{User: 2, Item: 1, Value: 2}, {User: 2, Item: 3, Value: 4},
		{User: 3, Item: 2, Value: 4}, {User: 3, Item: 3, Value: 1},
		{User: 4, Item: 1, Value: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 2, L: 4, Semantics: semantics.LM, Aggregation: semantics.Min}
	if _, err := eng.Form(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	key := prefKey{k: 2, missing: 0}
	old := eng.prefs[key].lists

	ds2, res, err := ds.Upsert([]dataset.Rating{{User: 3, Item: 2, Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := eng.Advance(ds2, res)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng2.prefs[key].lists
	if len(cur) != len(old) {
		t.Fatalf("carried cache holds %d lists, want %d", len(cur), len(old))
	}
	dirtyIdx, _ := ds2.UserIdxOf(3)
	for r := range cur {
		same := &cur[r].Items[0] == &old[r].Items[0] && &cur[r].Scores[0] == &old[r].Scores[0]
		if r == int(dirtyIdx) {
			if same {
				t.Fatalf("row %d (dirty) still aliases the old list", r)
			}
			continue
		}
		if !same {
			t.Fatalf("row %d (untouched) was rebuilt instead of carried", r)
		}
	}

	// A new item dirties no existing row: it takes the largest index,
	// and a short row's padding finds its K−d unrated items among the
	// old ones first, so short rows are carried like full ones.
	ds3, res3, err := ds2.Upsert([]dataset.Rating{{User: 9, Item: 9, Value: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res3.NewUsers != 1 || res3.NewItems != 1 {
		t.Fatalf("UpsertResult = %+v, want one new user and item", res3)
	}
	eng3, err := eng2.Advance(ds3, res3)
	if err != nil {
		t.Fatal(err)
	}
	next := eng3.prefs[key].lists
	if len(next) != ds3.NumUsers() {
		t.Fatalf("carried cache holds %d lists, want %d", len(next), ds3.NumUsers())
	}
	for r := 0; r < len(cur); r++ {
		if &next[r].Items[0] != &cur[r].Items[0] || &next[r].Scores[0] != &cur[r].Scores[0] {
			t.Fatalf("row %d (untouched, %d ratings) was rebuilt instead of carried", r, len(ds3.UserRatings(ds3.UserAt(dataset.UserIdx(r)))))
		}
	}
	// And the carried+patched cache must equal a cold build.
	fresh, err := NewEngine(ds3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Form(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng3.Form(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("carried cache forms different groups than a cold engine")
	}
}

// TestEngineMetamorphicInterleaving is the solver half of the
// metamorphic parity harness: a randomized interleaving of upserts
// (re-ratings, appendable new users/items, mid-range rebuild
// triggers) and compactions, where after every mutation the advanced
// engine's Form output across LM/AV × Max/Min/Sum × workers 1/8 is
// compared against a from-scratch dataset build plus a fresh Engine —
// the oracle that owns no cache to get wrong. Each configuration is
// formed three times per step, so every partition kind runs the
// bucketizing pass, the fill and the cached path (or, after a
// compaction, the carried partition), and all three must give the
// oracle's bytes.
func TestEngineMetamorphicInterleaving(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))

	log := []dataset.Rating{}
	maxUser, maxItem := 40, 25
	for u := 1; u <= maxUser; u++ {
		for n := 0; n < 3; n++ {
			log = append(log, dataset.Rating{
				User:  dataset.UserID(u),
				Item:  dataset.ItemID(1 + rng.Intn(maxItem)),
				Value: float64(1 + rng.Intn(5)),
			})
		}
	}
	ds, err := dataset.FromRatings(dataset.DefaultScale, log)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}

	var cfgs []core.Config
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
			for _, w := range []int{1, 8} {
				cfgs = append(cfgs, core.Config{K: 3, L: 7, Semantics: sem, Aggregation: agg, Workers: w})
			}
		}
	}

	check := func(step int) {
		fresh, err := dataset.FromRatings(dataset.DefaultScale, log)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewEngine(fresh)
		if err != nil {
			t.Fatal(err)
		}
		before := eng.Stats()
		for ci, cfg := range cfgs {
			want, err := oracle.Form(ctx, cfg)
			if err != nil {
				t.Fatalf("step %d cfg %d oracle: %v", step, ci, err)
			}
			wantBytes := resultBytes(t, want)
			for pass := 0; pass < 3; pass++ {
				got, err := eng.Form(ctx, cfg)
				if err != nil {
					t.Fatalf("step %d cfg %d pass %d: %v", step, ci, pass, err)
				}
				if !bytes.Equal(resultBytes(t, got), wantBytes) {
					t.Fatalf("step %d cfg %+v pass %d: advanced engine diverged from from-scratch oracle", step, cfg, pass)
				}
			}
		}
		// Every kind's partition is filled or carried by now, and the
		// later passes started from it.
		after := eng.Stats()
		if after.PartitionBuilds-before.PartitionBuilds > core.PartitionKinds || after.PartitionHits == before.PartitionHits {
			t.Fatalf("step %d: partition builds %d -> %d, hits %d -> %d", step,
				before.PartitionBuilds, after.PartitionBuilds, before.PartitionHits, after.PartitionHits)
		}
	}

	check(-1)
	steps := 18
	if testing.Short() {
		steps = 6
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 2: // compaction republish
			next := eng.Dataset().Compact()
			if eng, err = eng.Advance(next, dataset.UpsertResult{}); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
		default: // upsert batch
			batch := make([]dataset.Rating, 0, 4)
			for n := 1 + rng.Intn(4); n > 0; n-- {
				r := dataset.Rating{
					User:  dataset.UserID(1 + rng.Intn(maxUser)),
					Item:  dataset.ItemID(1 + rng.Intn(maxItem)),
					Value: float64(1 + rng.Intn(5)),
				}
				switch rng.Intn(16) {
				case 0, 1: // fresh appendable user
					maxUser++
					r.User = dataset.UserID(maxUser)
				case 2, 3: // fresh appendable item
					maxItem++
					r.Item = dataset.ItemID(maxItem)
				case 4: // mid-range user: forces the rebuild fallback
					r.User = dataset.UserID(-1 - step)
				}
				batch = append(batch, r)
			}
			next, res, err := eng.Dataset().Upsert(batch)
			if err != nil {
				t.Fatalf("step %d upsert: %v", step, err)
			}
			log = append(log, batch...)
			if eng, err = eng.Advance(next, res); err != nil {
				t.Fatalf("step %d advance: %v", step, err)
			}
		}
		check(step)
	}
}

// resultBytes is r's JSON encoding: floats by their shortest exact
// decimal, so equal bytes mean equal bits.
func resultBytes(t *testing.T, r *core.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
