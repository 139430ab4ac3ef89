package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// levelKey names one (item, rating value) cell of a level table.
type levelKey struct {
	item ItemID
	bits uint64
}

// levelCells returns ds's level table as its non-zero cells, keyed by
// item ID and value bits, so tables that differ only in zero-count
// levels (a value upserts re-rated away) compare equal.
func levelCells(ds *Dataset) map[levelKey]int32 {
	lv := ds.Levels()
	cells := make(map[levelKey]int32)
	for j, it := range ds.Items() {
		for l, v := range lv.Values() {
			if c := lv.Counts[j*len(lv.Values())+l]; c != 0 {
				cells[levelKey{it, math.Float64bits(v)}] = c
			}
		}
	}
	return cells
}

// assertSameLevels checks that got's level table counts every item's
// ratings per value exactly as want's does, with the same exactness.
func assertSameLevels(t *testing.T, tag string, got, want *Dataset) {
	t.Helper()
	if (got.Levels() == nil) != (want.Levels() == nil) {
		t.Fatalf("%s: level table present=%v, want %v", tag, got.Levels() != nil, want.Levels() != nil)
	}
	if want.Levels() == nil {
		return
	}
	if g, w := levelCells(got), levelCells(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: level cells\n got %v\nwant %v", tag, g, w)
	}
	if g, w := got.Levels().Exact, want.Levels().Exact; g != w {
		t.Fatalf("%s: Exact = %v, want %v", tag, g, w)
	}
}

// TestLevelsAfterUpserts: random upsert batches — re-ratings, new
// users, new items and one off-grid value that widens the table —
// leave level counts equal to a fresh build over the same rating log,
// at every step and after Compact.
func TestLevelsAfterUpserts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var log []Rating
	for u := 0; u < 40; u++ {
		for i := 0; i < 15; i++ {
			if rng.Intn(2) == 0 {
				log = append(log, Rating{User: UserID(u), Item: ItemID(i), Value: float64(1 + rng.Intn(5))})
			}
		}
	}
	ds := replayOracle(t, log)
	if lv := ds.Levels(); lv == nil || !lv.Exact || len(lv.Values()) != 5 {
		t.Fatalf("1-5 stars: level table %+v", lv)
	}
	nextUser, nextItem := UserID(40), ItemID(15)
	for step := 0; step < 30; step++ {
		var batch []Rating
		for b := 0; b < 6; b++ {
			batch = append(batch, Rating{User: UserID(rng.Intn(int(nextUser))), Item: ItemID(rng.Intn(int(nextItem))), Value: float64(1 + rng.Intn(5))})
		}
		switch step % 5 {
		case 1:
			batch = append(batch, Rating{User: nextUser, Item: ItemID(rng.Intn(int(nextItem))), Value: 3})
			nextUser++
		case 3:
			batch = append(batch, Rating{User: UserID(rng.Intn(int(nextUser))), Item: nextItem, Value: 2})
			nextItem++
		}
		if step == 12 {
			batch = append(batch, Rating{User: nextUser, Item: 0, Value: 2.3})
			nextUser++
		}
		next, res, err := ds.Upsert(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rebuilt {
			t.Fatalf("step %d rebuilt", step)
		}
		log = append(log, batch...)
		ds = next
		assertSameLevels(t, "upsert", ds, replayOracle(t, log))
	}
	if lv := ds.Levels(); lv == nil || lv.Exact || len(lv.Values()) != 6 {
		t.Fatalf("after the off-grid value: level table %+v, want 6 inexact levels", lv)
	}
	assertSameLevels(t, "compact", ds.Compact(), replayOracle(t, log))
}

// TestLevelsDropped: a catalog past 16 distinct values, or holding
// both -0 and +0, has no level table, whether built or upserted into.
func TestLevelsDropped(t *testing.T) {
	scale := Scale{Min: -1, Max: 20}
	var rs []Rating
	for v := 1; v <= 16; v++ {
		rs = append(rs, Rating{User: UserID(v), Item: 1, Value: float64(v)})
	}
	ds := fromRatings(t, scale, rs)
	if ds.Levels() == nil || len(ds.Levels().Values()) != 16 {
		t.Fatalf("16 values: level table %+v", ds.Levels())
	}
	more, _, err := ds.Upsert([]Rating{{User: 99, Item: 1, Value: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if more.Levels() != nil {
		t.Error("upserting a 17th value kept the level table")
	}
	if fromRatings(t, scale, append(rs, Rating{User: 99, Item: 1, Value: 17})).Levels() != nil {
		t.Error("17 built values kept a level table")
	}
	zeros := []Rating{{User: 1, Item: 1, Value: 0}, {User: 2, Item: 1, Value: 1}}
	pos := fromRatings(t, scale, zeros)
	if pos.Levels() == nil {
		t.Fatal("+0 alone dropped the level table")
	}
	neg, _, err := pos.Upsert([]Rating{{User: 3, Item: 1, Value: math.Copysign(0, -1)}})
	if err != nil {
		t.Fatal(err)
	}
	if neg.Levels() != nil {
		t.Error("upserting -0 beside +0 kept the level table")
	}
	if fromRatings(t, scale, append(zeros, Rating{User: 3, Item: 1, Value: math.Copysign(0, -1)})).Levels() != nil {
		t.Error("building -0 beside +0 kept a level table")
	}
}

func fromRatings(t *testing.T, scale Scale, rs []Rating) *Dataset {
	t.Helper()
	ds, err := FromRatings(scale, rs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestExactGrid pins Levels.Exact's rule: values on the 2⁻⁸ grid, and
// NumRatings·max|value|·2⁸ below 2⁵³.
func TestExactGrid(t *testing.T) {
	for _, c := range []struct {
		values   []float64
		nratings int
		want     bool
	}{
		{[]float64{1, 2, 3, 4, 5}, 1_000_000, true},
		{[]float64{0.5, 1, 1.5}, 1_000_000, true},
		{[]float64{-1, 1.0 / 256}, 10, true},
		{[]float64{1, 1.1}, 10, false},
		{[]float64{1.0 / 512}, 10, false},
		{[]float64{5}, 1 << 42, true},
		{[]float64{5}, 1 << 43, false},
		{[]float64{8}, 1 << 42, false},
	} {
		if got := exactGrid(c.values, c.nratings); got != c.want {
			t.Errorf("exactGrid(%v, %d) = %v, want %v", c.values, c.nratings, got, c.want)
		}
	}
}
