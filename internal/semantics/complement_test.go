package semantics

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/synth"
)

// complementCorpus is the catalogs the complement must match the
// forward pass on: a sparse one, a dense one (every member rated every
// item, so LM scores come from the level minimum rather than dropping
// to Missing), a half-star one, an Upsert overlay with appended users
// and items, and that overlay compacted.
func complementCorpus(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	sparse, err := synth.YahooLike(300, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	rows := make([][]float64, 70)
	for u := range rows {
		rows[u] = make([]float64, 12)
		for i := range rows[u] {
			rows[u][i] = float64(1 + rng.Intn(5))
		}
	}
	dense, err := dataset.FromDense(dataset.DefaultScale, rows)
	if err != nil {
		t.Fatal(err)
	}
	var half []dataset.Rating
	for u := 0; u < 120; u++ {
		for i := 0; i < 25; i++ {
			if rng.Intn(3) == 0 {
				half = append(half, dataset.Rating{User: dataset.UserID(u), Item: dataset.ItemID(i), Value: 1 + 0.5*float64(rng.Intn(9))})
			}
		}
	}
	halfStar, err := dataset.FromRatings(dataset.DefaultScale, half)
	if err != nil {
		t.Fatal(err)
	}
	users, items := sparse.Users(), sparse.Items()
	var batch []dataset.Rating
	for i := 0; i < 60; i++ {
		batch = append(batch, dataset.Rating{User: users[rng.Intn(len(users))], Item: items[rng.Intn(len(items))], Value: float64(1 + rng.Intn(5))})
	}
	for u := 0; u < 3; u++ {
		fresh := users[len(users)-1] + dataset.UserID(1+u)
		batch = append(batch,
			dataset.Rating{User: fresh, Item: items[rng.Intn(len(items))], Value: 4},
			dataset.Rating{User: fresh, Item: items[len(items)-1] + dataset.ItemID(1+u), Value: float64(1 + u)})
	}
	overlay, res, err := sparse.Upsert(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilt || overlay.Overlay().DirtyRows == 0 {
		t.Fatalf("upsert left the overlay path: %+v", res)
	}
	return map[string]*dataset.Dataset{
		"sparse": sparse, "dense": dense, "half-star": halfStar,
		"overlay": overlay, "compacted": overlay.Compact(),
	}
}

// randomSplit draws size distinct users of ds to exclude and returns
// them as ascending indices, with the remaining users' IDs ascending.
func randomSplit(rng *rand.Rand, ds *dataset.Dataset, size int) ([]dataset.UserIdx, []dataset.UserID) {
	out := make([]bool, ds.NumUsers())
	for _, r := range rng.Perm(ds.NumUsers())[:size] {
		out[r] = true
	}
	var excluded []dataset.UserIdx
	var rest []dataset.UserID
	for r, u := range ds.Users() {
		if out[r] {
			excluded = append(excluded, dataset.UserIdx(r))
		} else {
			rest = append(rest, u)
		}
	}
	return excluded, rest
}

// TestComplementTopKMatchesForward: the complement top-k over "every
// user but these" returns TopKInto's items and score bits over the
// remaining users, for both semantics, Missing on and off the rating
// grid, K up to the catalog size (so the padding tail runs), and
// excluded sets from empty to all but one user. One scratch is reused
// dirty across every call, so the level table must come back zeroed.
func TestComplementTopKMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s, fwd := new(TopKScratch), new(TopKScratch)
	for name, ds := range complementCorpus(t) {
		if ds.Levels() == nil || !ds.Levels().Exact {
			t.Fatalf("%s: want an exact level table, got %+v", name, ds.Levels())
		}
		n, m := ds.NumUsers(), ds.NumItems()
		for _, sem := range []Semantics{LM, AV} {
			for _, missing := range []float64{0, 0.5, 2.5, 6} {
				sc := Scorer{DS: ds, Missing: missing}
				for _, size := range []int{0, 1, n / 10, n / 2, n - 2, n - 1} {
					excluded, rest := randomSplit(rng, ds, size)
					for _, k := range []int{1, 4, m} {
						label := fmt.Sprintf("%s/%s/missing=%v/excluded=%d/k=%d", name, sem, missing, size, k)
						items, scores, ok := sc.ComplementTopKInto(sem, excluded, k, s)
						if !ok {
							t.Fatalf("%s: complement declined", label)
						}
						wantItems, wantScores, err := sc.TopKInto(sem, rest, k, fwd)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(items, wantItems) || !sameBits(scores, wantScores) {
							t.Fatalf("%s:\ncomplement %v %v\nforward    %v %v", label, items, scores, wantItems, wantScores)
						}
					}
				}
			}
		}
	}
}

// TestComplementTopKDeclines: the complement answers only where its
// stats are exact. A 0.1-grid catalog has a level table but no exact
// AV sum, so AV declines and LM (counts and a minimum) still answers;
// weights decline AV; a catalog with more than 16 rating values has no
// table at all; and requests TopKInto would reject decline too.
func TestComplementTopKDeclines(t *testing.T) {
	var rs []dataset.Rating
	for u := 0; u < 30; u++ {
		for i := 0; i < 8; i++ {
			rs = append(rs, dataset.Rating{User: dataset.UserID(u), Item: dataset.ItemID(i), Value: 1 + 0.1*float64((u*3+i)%41)})
		}
	}
	continuous, err := dataset.FromRatings(dataset.DefaultScale, rs)
	if err != nil {
		t.Fatal(err)
	}
	if continuous.Levels() != nil {
		t.Fatalf("41 rating values kept a level table")
	}
	for i := range rs {
		rs[i].Value = 1 + 0.1*float64(i%7)
	}
	tenth, err := dataset.FromRatings(dataset.DefaultScale, rs)
	if err != nil {
		t.Fatal(err)
	}
	if lv := tenth.Levels(); lv == nil || lv.Exact {
		t.Fatalf("0.1 grid: want an inexact level table, got %+v", lv)
	}
	s := new(TopKScratch)
	excluded := []dataset.UserIdx{0, 3, 4}
	if _, _, ok := (Scorer{DS: tenth}).ComplementTopKInto(AV, excluded, 3, s); ok {
		t.Error("AV on a 0.1 grid took the complement")
	}
	if _, _, ok := (Scorer{DS: tenth}).ComplementTopKInto(LM, excluded, 3, s); !ok {
		t.Error("LM on a 0.1 grid declined the complement")
	}
	if _, _, ok := (Scorer{DS: continuous}).ComplementTopKInto(LM, excluded, 3, s); ok {
		t.Error("a catalog without a level table took the complement")
	}
	stars, err := synth.YahooLike(50, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	weighted := Scorer{DS: stars, Weights: map[dataset.UserID]float64{stars.Users()[1]: 2}}
	if _, _, ok := weighted.ComplementTopKInto(AV, excluded, 3, s); ok {
		t.Error("weighted AV took the complement")
	}
	all := make([]dataset.UserIdx, stars.NumUsers())
	for r := range all {
		all[r] = dataset.UserIdx(r)
	}
	for _, c := range []struct {
		excluded []dataset.UserIdx
		k        int
	}{{excluded, 0}, {excluded, stars.NumItems() + 1}, {all, 3}} {
		if _, _, ok := (Scorer{DS: stars}).ComplementTopKInto(LM, c.excluded, c.k, s); ok {
			t.Errorf("k=%d excluded=%d: an invalid request took the complement", c.k, len(c.excluded))
		}
	}
}

// TestComplementTopKSteadyStateZeroAlloc: a warm scratch answers the
// complement without allocating, as TopKInto does.
func TestComplementTopKSteadyStateZeroAlloc(t *testing.T) {
	ds, err := synth.YahooLike(400, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	excluded, _ := randomSplit(rand.New(rand.NewSource(3)), ds, 40)
	s := new(TopKScratch)
	for _, sem := range []Semantics{LM, AV} {
		sc := Scorer{DS: ds, Missing: 0.5}
		sc.ComplementTopKInto(sem, excluded, 5, s)
		if avg := testing.AllocsPerRun(20, func() { sc.ComplementTopKInto(sem, excluded, 5, s) }); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", sem, avg)
		}
	}
}
