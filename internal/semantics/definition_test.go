package semantics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/synth"
)

// definitionRanking is TopK's full ranking computed straight from the
// paper's definitions, sharing none of TopK's accumulation, chunk grid
// or selection: every catalog item some member rated is scored on its
// own with ItemScore (Definition 1 or 2), those items are fully sorted
// by score descending then item ascending, and the unrated items follow
// in catalog order at their own ItemScore, the imputed value. TopK's
// list for any k is the first k entries.
func definitionRanking(sc Scorer, sem Semantics, members []dataset.UserID) ([]dataset.ItemID, []float64) {
	rated := map[dataset.ItemID]bool{}
	for _, u := range members {
		for _, e := range sc.DS.UserRatings(u) {
			rated[e.Item] = true
		}
	}
	type scored struct {
		item  dataset.ItemID
		score float64
	}
	var ranked []scored
	for it := range rated {
		ranked = append(ranked, scored{it, sc.ItemScore(sem, members, it)})
	}
	slices.SortFunc(ranked, func(a, b scored) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.item, b.item)
	})
	for _, it := range sc.DS.Items() {
		if !rated[it] {
			ranked = append(ranked, scored{it, sc.ItemScore(sem, members, it)})
		}
	}
	items := make([]dataset.ItemID, len(ranked))
	scores := make([]float64, len(ranked))
	for i, r := range ranked {
		items[i], scores[i] = r.item, r.score
	}
	return items, scores
}

// requireDefinition fails unless TopK(k) is the first k entries of the
// definition ranking, scores compared bit for bit.
func requireDefinition(t *testing.T, label string, sc Scorer, sem Semantics, members []dataset.UserID, k int, defItems []dataset.ItemID, defScores []float64) {
	t.Helper()
	items, scores, err := sc.TopK(sem, members, k)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(items, defItems[:k]) || !sameBits(scores, defScores[:k]) {
		t.Fatalf("%s:\nTopK:       %v %v\ndefinition: %v %v", label, items, scores, defItems[:k], defScores[:k])
	}
}

// TestTopKMatchesDefinition pins TopK to the definition ranking for
// every semantics, weighting, missing value, worker count and group
// size, including sizes that cross the parallel chunk grid. At
// missing 2 a rated item can score below the pad value, so TopK's
// rated-first list differs from an argmax over the whole catalog.
// Every rating, weight and missing value is dyadic, so the AV sums are
// exact in any association and the comparison is bitwise.
func TestTopKMatchesDefinition(t *testing.T) {
	ds, err := synth.YahooLike(2*topkChunk+137, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	users := ds.Users()
	weights := map[dataset.UserID]float64{}
	for i, u := range users {
		if i%4 == 0 {
			weights[u] = 0.25 * float64(1+i%7)
		}
	}
	sizes := []int{1, 3, 100, topkChunk + 1, 2*topkChunk + 137}
	for _, sem := range []Semantics{LM, AV} {
		for _, missing := range []float64{0, 0.5, 2} {
			for _, wmap := range []map[dataset.UserID]float64{nil, weights} {
				for _, size := range sizes {
					members := users[:size]
					ref := Scorer{DS: ds, Missing: missing, Weights: wmap}
					defItems, defScores := definitionRanking(ref, sem, members)
					for _, workers := range []int{1, 4} {
						sc := ref
						sc.Workers = workers
						for _, k := range []int{1, 5, 40} {
							label := fmt.Sprintf("%s/missing=%v/weighted=%v/workers=%d/size=%d/k=%d",
								sem, missing, wmap != nil, workers, size, k)
							requireDefinition(t, label, sc, sem, members, k, defItems, defScores)
						}
					}
				}
			}
		}
	}
}

// TestTopKDensePadding crosses the k > candidate-count boundary, so
// the untouched-slot padding walk is compared against the definition
// ranking's catalog-order tail.
func TestTopKDensePadding(t *testing.T) {
	b := dataset.NewBuilder(dataset.DefaultScale)
	b.MustAdd(1, 10, 5)
	b.MustAdd(1, 30, 2)
	b.MustAdd(2, 10, 3)
	// Items 20, 40, 50 exist only through other users.
	b.MustAdd(9, 20, 1)
	b.MustAdd(9, 40, 1)
	b.MustAdd(9, 50, 1)
	ds := b.Build()
	members := []dataset.UserID{1, 2}
	for _, sem := range []Semantics{LM, AV} {
		for _, missing := range []float64{0, 2} {
			sc := Scorer{DS: ds, Missing: missing}
			defItems, defScores := definitionRanking(sc, sem, members)
			for k := 1; k <= 5; k++ {
				requireDefinition(t, fmt.Sprintf("%s/missing=%v/k=%d", sem, missing, k), sc, sem, members, k, defItems, defScores)
			}
		}
	}
}

// TestItemScoreIdxMatchesItemScore pins the index-space single-item
// scorer to its ID-space adapter, including missing-rating probes.
func TestItemScoreIdxMatchesItemScore(t *testing.T) {
	ds, err := synth.MovieLensLike(300, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	users := ds.Users()
	members := users[:25]
	midx := make([]dataset.UserIdx, len(members))
	for i, u := range members {
		r, ok := ds.UserIdxOf(u)
		if !ok {
			t.Fatal("member must resolve")
		}
		midx[i] = r
	}
	sc := Scorer{DS: ds, Missing: 0.25, Weights: map[dataset.UserID]float64{members[0]: 2}}
	for _, sem := range []Semantics{LM, AV} {
		for j, it := range ds.Items() {
			want := sc.ItemScore(sem, members, it)
			got := sc.ItemScoreIdx(sem, midx, dataset.ItemIdx(j))
			if got != want {
				t.Fatalf("%s item %d: ItemScoreIdx %v != ItemScore %v", sem, it, got, want)
			}
		}
	}
}

// TestItemScoreIdxMatchesGroupStats pins the single node's refold
// probe to the router's: on a 0.1 rating grid, which float64 cannot
// represent, ItemScoreIdx must equal the Score of the members'
// GroupStats record bit for bit — one formula, WSum + (totalW −
// WRaters)·Missing under AV, whatever the missing value.
func TestItemScoreIdxMatchesGroupStats(t *testing.T) {
	b := dataset.NewBuilder(dataset.Scale{Min: 0, Max: 1})
	for u := 0; u < 60; u++ {
		for i := 0; i < 12; i++ {
			if (u+i)%3 == 0 {
				continue
			}
			b.MustAdd(dataset.UserID(u), dataset.ItemID(i), 0.1*float64(1+(u*7+i*5)%9))
		}
	}
	ds := b.Build()
	users := ds.Users()
	weights := map[dataset.UserID]float64{}
	for i, u := range users {
		if i%3 == 0 {
			weights[u] = 0.5 * float64(1+i%4)
		}
	}
	for g := 0; g < 15; g++ {
		lo := (g * 11) % 40
		members := users[lo : lo+1+(g*7)%20]
		midx := make([]dataset.UserIdx, len(members))
		for i, u := range members {
			midx[i], _ = ds.UserIdxOf(u)
		}
		for _, wmap := range []map[dataset.UserID]float64{nil, weights} {
			for _, missing := range []float64{0, 0.05, 0.3} {
				sc := Scorer{DS: ds, Missing: missing, Weights: wmap}
				var acc StatsAcc
				sc.GroupStats(&acc, members)
				totalW := 0.0
				for _, u := range members {
					totalW += sc.Weight(u)
				}
				for _, sem := range []Semantics{LM, AV} {
					for j, it := range ds.Items() {
						want := acc.Of(it).Score(sem, len(members), totalW, missing)
						got := sc.ItemScoreIdx(sem, midx, dataset.ItemIdx(j))
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("group %d weighted=%v missing=%v %s item %d: ItemScoreIdx %v, GroupStats score %v",
								g, wmap != nil, missing, sem, j, got, want)
						}
					}
				}
			}
		}
	}
}
