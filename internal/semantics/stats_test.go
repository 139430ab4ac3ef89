package semantics

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/synth"
)

// TestGroupStatsPartitionMatchesTopK is the decomposition contract the
// scatter-gather tier stands on: cut a member list into contiguous
// parts, take each part's GroupStats, Merge them by item in part
// order, and TopKFromStats over the result is Scorer.TopK over the
// whole list, bit for bit — for both semantics, with and without an
// imputed Missing, and at k = NumItems, which forces padding. The
// parts' probe-mode GroupStatsFor, merged positionally into zero
// records, scores every catalog item (and an unknown one) exactly
// like ItemScore.
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
		for _, c := range cuts {
			part, err := Scorer{DS: ds}.GroupStats(members[lo : c+1])
			if err != nil {
				t.Fatal(err)
			}
			partProbe, err := Scorer{DS: ds}.GroupStatsFor(members[lo:c+1], probe)
			if err != nil {
				t.Fatal(err)
			}
			lo = c + 1
			for q, st := range partProbe {
				probed[q].Merge(st)
			}
			for _, st := range part {
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
// Min 0, so the probe answer always encodes as JSON.
func TestGroupStatsForUnratedEncodes(t *testing.T) {
	b := dataset.NewBuilder(dataset.DefaultScale)
	b.MustAdd(1, 10, 4)
	b.MustAdd(1, 11, 2)
	b.MustAdd(2, 11, 3)
	b.MustAdd(3, 12, 5) // item 12 exists, but neither member rated it
	sc := Scorer{DS: b.Build()}
	got, err := sc.GroupStatsFor([]dataset.UserID{1, 2}, []dataset.ItemID{12, 11, 99, 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []ItemStats{
		{Item: 12},
		{Item: 11, Min: 2, Count: 2, WSum: 5, WRaters: 2},
		{Item: 99},
		{Item: 10, Min: 4, Count: 1, WSum: 4, WRaters: 1},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("GroupStatsFor = %+v, want %+v", got, want)
	}
	raw, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	const wantJSON = `[{"item":12,"min":0,"count":0,"wsum":0,"wraters":0},{"item":11,"min":2,"count":2,"wsum":5,"wraters":2},{"item":99,"min":0,"count":0,"wsum":0,"wraters":0},{"item":10,"min":4,"count":1,"wsum":4,"wraters":1}]`
	if string(raw) != wantJSON {
		t.Fatalf("json = %s, want %s", raw, wantJSON)
	}
}

// TestGroupStatsRejectNonResident: a member the dataset does not hold
// is a topology fault on a shard, never an all-Missing member.
func TestGroupStatsRejectNonResident(t *testing.T) {
	ds := dense(t, [][]float64{{1, 2}, {3, 4}})
	sc := Scorer{DS: ds}
	members := []dataset.UserID{0, 7, 1}
	if _, err := sc.GroupStats(members); !errors.Is(err, gferr.ErrBadConfig) {
		t.Errorf("GroupStats err = %v, want ErrBadConfig", err)
	}
	if _, err := sc.GroupStatsFor(members, []dataset.ItemID{0}); !errors.Is(err, gferr.ErrBadConfig) {
		t.Errorf("GroupStatsFor err = %v, want ErrBadConfig", err)
	}
}
