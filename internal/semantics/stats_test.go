package semantics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/synth"
)

// TestGroupStatsPartitionMatchesTopK is the decomposition contract the
// scatter-gather tier stands on: cut a member list into contiguous
// parts, take each part's GroupStats records, Merge them by item in
// part order, and TopKFromStats over the result is Scorer.TopK over
// the whole list, bit for bit — for both semantics, with and without
// an imputed Missing, and at k = NumItems, which forces padding. The
// parts' records for a listed item (StatsAcc.Of), merged positionally
// into zero records, score every catalog item (and an unknown one)
// exactly like ItemScore. One accumulator serves every part, as one
// serves a shard's whole batch.
func TestGroupStatsPartitionMatchesTopK(t *testing.T) {
	ds, err := synth.YahooLike(600, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	users := ds.Users()
	probe := append(slices.Clone(ds.Items()), 1<<30)
	sizes := []int{1, 2, 3, 7, 40, 250, len(users)}
	for trial := 0; trial < 24; trial++ {
		n := sizes[trial%len(sizes)]
		members := make([]dataset.UserID, n)
		for i, p := range rng.Perm(len(users))[:n] {
			members[i] = users[p]
		}
		parts := 1 + rng.Intn(4)
		if parts > n {
			parts = n
		}
		cuts := append(rng.Perm(n - 1)[:parts-1], n-1)
		slices.Sort(cuts)
		var merged []ItemStats
		at := map[dataset.ItemID]int{}
		probed := make([]ItemStats, len(probe))
		lo := 0
		var acc StatsAcc
		for _, c := range cuts {
			if got := (Scorer{DS: ds}).GroupStats(&acc, members[lo:c+1]); got != c+1-lo {
				t.Fatalf("GroupStats counted %d residents of %d", got, c+1-lo)
			}
			lo = c + 1
			for q, it := range probe {
				probed[q].Merge(acc.Of(it))
			}
			for i := range acc.Rated() {
				st := acc.At(i)
				if i > 0 && st.Item <= acc.At(i-1).Item {
					t.Fatalf("records out of item order at %d: %d after %d", i, st.Item, acc.At(i-1).Item)
				}
				if p, ok := at[st.Item]; ok {
					merged[p].Merge(st)
					continue
				}
				at[st.Item] = len(merged)
				merged = append(merged, st)
			}
		}
		for _, sem := range []Semantics{LM, AV} {
			for _, missing := range []float64{0, 1.5} {
				sc := Scorer{DS: ds, Missing: missing}
				for q, it := range probe {
					got := probed[q].Score(sem, n, float64(n), missing)
					if want := sc.ItemScore(sem, members, it); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d parts=%d %v missing=%v item %d: probe score %v, ItemScore %v",
							n, len(cuts), sem, missing, it, got, want)
					}
				}
				for _, k := range []int{1, 5, ds.NumItems()} {
					wantItems, wantScores, err := sc.TopK(sem, members, k)
					if err != nil {
						t.Fatal(err)
					}
					items, scores := TopKFromStats(sem, merged, n, float64(n), missing, k, ds.Items())
					if !slices.Equal(items, wantItems) || !sameBits(scores, wantScores) {
						t.Fatalf("n=%d parts=%d %v missing=%v k=%d:\nstats %v %v\ntopk  %v %v",
							n, len(cuts), sem, missing, k, items, scores, wantItems, wantScores)
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestGroupStatsForUnratedEncodes pins the zero record: an item no
// member rated, and one the dataset does not know, report Count 0 and
// Min 0, so a record nobody rated has one encoding on the wire.
func TestGroupStatsForUnratedEncodes(t *testing.T) {
	b := dataset.NewBuilder(dataset.DefaultScale)
	b.MustAdd(1, 10, 4)
	b.MustAdd(1, 11, 2)
	b.MustAdd(2, 11, 3)
	b.MustAdd(3, 12, 5) // item 12 exists, but neither member rated it
	sc := Scorer{DS: b.Build()}
	var acc StatsAcc
	sc.GroupStats(&acc, []dataset.UserID{1, 2})
	var got []ItemStats
	for _, it := range []dataset.ItemID{12, 11, 99, 10} {
		got = append(got, acc.Of(it))
	}
	want := []ItemStats{
		{Item: 12},
		{Item: 11, Min: 2, Count: 2, WSum: 5, WRaters: 2},
		{Item: 99},
		{Item: 10, Min: 4, Count: 1, WSum: 4, WRaters: 1},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("records = %+v, want %+v", got, want)
	}
}

// TestGroupStatsSkipsNonResident: a shard is asked about a whole group
// and answers for its residents, so a member the dataset does not hold
// adds nothing to the records and is left out of the resident count;
// the router's resident-sum check is what catches a member no shard
// holds.
func TestGroupStatsSkipsNonResident(t *testing.T) {
	ds := dense(t, [][]float64{{1, 2}, {3, 4}})
	sc := Scorer{DS: ds}
	var with, without StatsAcc
	if got := sc.GroupStats(&with, []dataset.UserID{0, 7, 1}); got != 2 {
		t.Fatalf("residents = %d, want 2", got)
	}
	sc.GroupStats(&without, []dataset.UserID{0, 1})
	if with.Rated() != without.Rated() {
		t.Fatalf("rated %d items, want %d", with.Rated(), without.Rated())
	}
	for i := range with.Rated() {
		if with.At(i) != without.At(i) {
			t.Fatalf("record %d = %+v, want %+v", i, with.At(i), without.At(i))
		}
	}
}
