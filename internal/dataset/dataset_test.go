package dataset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// example1 is Table 1 of the paper: rows indexed by user u1..u6,
// columns by item i1..i3.
func example1(t *testing.T) *Dataset {
	t.Helper()
	ds, err := FromDense(DefaultScale, [][]float64{
		{1, 4, 3}, // u1 (here user 0)
		{2, 3, 5},
		{2, 5, 1},
		{2, 5, 1},
		{3, 1, 1},
		{1, 2, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFromDenseBasics(t *testing.T) {
	ds := example1(t)
	if got := ds.NumUsers(); got != 6 {
		t.Errorf("NumUsers = %d, want 6", got)
	}
	if got := ds.NumItems(); got != 3 {
		t.Errorf("NumItems = %d, want 3", got)
	}
	if got := ds.NumRatings(); got != 18 {
		t.Errorf("NumRatings = %d, want 18", got)
	}
	v, ok := ds.Rating(1, 2) // u2's rating for i3 in the paper = 5
	if !ok || v != 5 {
		t.Errorf("Rating(1,2) = %v,%v, want 5,true", v, ok)
	}
	if _, ok := ds.Rating(99, 0); ok {
		t.Error("unknown user should have no rating")
	}
}

func TestFromDenseRaggedRows(t *testing.T) {
	_, err := FromDense(DefaultScale, [][]float64{{1, 2}, {3}})
	if err == nil {
		t.Fatal("ragged rows should error")
	}
}

func TestFromDenseEmpty(t *testing.T) {
	if _, err := FromDense(DefaultScale, nil); err == nil {
		t.Fatal("empty matrix should error")
	}
}

func TestBuilderRejectsOutOfScale(t *testing.T) {
	b := NewBuilder(DefaultScale)
	if err := b.Add(1, 1, 0); err == nil {
		t.Error("rating 0 on a 1-5 scale should be rejected")
	}
	if err := b.Add(1, 1, 6); err == nil {
		t.Error("rating 6 on a 1-5 scale should be rejected")
	}
	if err := b.Add(1, 1, 3); err != nil {
		t.Errorf("rating 3 rejected: %v", err)
	}
}

func TestBuilderOverwrite(t *testing.T) {
	b := NewBuilder(DefaultScale)
	b.MustAdd(1, 1, 2)
	b.MustAdd(1, 1, 5)
	ds := b.Build()
	v, ok := ds.Rating(1, 1)
	if !ok || v != 5 {
		t.Errorf("re-rating should overwrite: got %v,%v", v, ok)
	}
	if ds.NumRatings() != 1 {
		t.Errorf("NumRatings = %d, want 1", ds.NumRatings())
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd out of scale should panic")
		}
	}()
	NewBuilder(DefaultScale).MustAdd(1, 1, 42)
}

func TestUsersItemsSorted(t *testing.T) {
	b := NewBuilder(DefaultScale)
	b.MustAdd(9, 7, 3)
	b.MustAdd(2, 5, 4)
	b.MustAdd(5, 1, 1)
	ds := b.Build()
	us := ds.Users()
	for i := 1; i < len(us); i++ {
		if us[i-1] >= us[i] {
			t.Fatalf("users not sorted: %v", us)
		}
	}
	is := ds.Items()
	for i := 1; i < len(is); i++ {
		if is[i-1] >= is[i] {
			t.Fatalf("items not sorted: %v", is)
		}
	}
}

func TestUserRatingsSortedByItem(t *testing.T) {
	b := NewBuilder(DefaultScale)
	b.MustAdd(1, 30, 3)
	b.MustAdd(1, 10, 4)
	b.MustAdd(1, 20, 5)
	ds := b.Build()
	es := ds.UserRatings(1)
	if len(es) != 3 || es[0].Item != 10 || es[1].Item != 20 || es[2].Item != 30 {
		t.Errorf("UserRatings not sorted by item: %v", es)
	}
}

// TestUserRatingsCallerOwned pins the one-copy contract: ratings live
// only in the CSR arrays, and UserRatings hands out a fresh copy, so
// overwriting it — on a compact dataset and on an upserted one — moves
// no rating any accessor reads.
func TestUserRatingsCallerOwned(t *testing.T) {
	base, err := FromRatings(DefaultScale, []Rating{
		{User: 1, Item: 10, Value: 4}, {User: 1, Item: 20, Value: 2},
		{User: 2, Item: 10, Value: 5}, {User: 2, Item: 30, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	upserted, _, err := base.Upsert([]Rating{
		{User: 1, Item: 30, Value: 3}, // a new rating in a dirty row
		{User: 2, Item: 10, Value: 1}, // a re-rating
		{User: 3, Item: 40, Value: 2}, // an appended user and item
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ds   *Dataset
	}{{"compact", base}, {"upserted", upserted}} {
		ds := tc.ds
		for r, u := range ds.Users() {
			want := idEntries(ds, UserIdx(r))
			cols, vals := ds.RowIdx(UserIdx(r))
			wantCols, wantVals := slices.Clone(cols), slices.Clone(vals)

			es := ds.UserRatings(u)
			for p := range es {
				es[p] = Entry{Item: -1, Value: 0}
			}
			if got := ds.UserRatings(u); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: UserRatings(%d) after overwriting an earlier result = %v, want %v", tc.name, u, got, want)
			}
			cols, vals = ds.RowIdx(UserIdx(r))
			if !slices.Equal(cols, wantCols) || !slices.Equal(vals, wantVals) {
				t.Fatalf("%s: RowIdx(%d) = (%v,%v), want (%v,%v)", tc.name, r, cols, vals, wantCols, wantVals)
			}
			for _, e := range want {
				if v, ok := ds.Rating(u, e.Item); !ok || v != e.Value {
					t.Fatalf("%s: Rating(%d,%d) = %v,%v, want %v", tc.name, u, e.Item, v, ok, e.Value)
				}
			}
		}
		if es := ds.UserRatings(99); es != nil {
			t.Fatalf("%s: UserRatings(unknown) = %v, want nil", tc.name, es)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	s := DefaultScale
	if s.Valid(0.5) || !s.Valid(1) || !s.Valid(5) || s.Valid(5.5) {
		t.Error("Valid boundaries wrong")
	}
	if s.Clamp(0) != 1 || s.Clamp(9) != 5 || s.Clamp(3) != 3 {
		t.Error("Clamp wrong")
	}
}

func TestSubsetUsers(t *testing.T) {
	ds := example1(t)
	sub := ds.SubsetUsers([]UserID{0, 2, 2, 99})
	if sub.NumUsers() != 2 {
		t.Errorf("NumUsers = %d, want 2 (dedup, drop unknown)", sub.NumUsers())
	}
	if _, ok := sub.Rating(1, 0); ok {
		t.Error("user 1 should be excluded")
	}
	v, ok := sub.Rating(2, 1)
	if !ok || v != 5 {
		t.Errorf("subset lost rating: %v %v", v, ok)
	}
}

func TestItemCount(t *testing.T) {
	ds := example1(t)
	if got := ds.ItemCount(0); got != 6 {
		t.Errorf("ItemCount(0) = %d, want 6", got)
	}
	if got := ds.ItemCount(99); got != 0 {
		t.Errorf("ItemCount(99) = %d, want 0", got)
	}
}

func TestTrim(t *testing.T) {
	b := NewBuilder(DefaultScale)
	// Users 1,2 rate items 1,2. User 3 rates only item 3.
	b.MustAdd(1, 1, 3)
	b.MustAdd(1, 2, 3)
	b.MustAdd(2, 1, 3)
	b.MustAdd(2, 2, 3)
	b.MustAdd(3, 3, 3)
	ds := b.Build().Trim(2, 2)
	if ds.NumUsers() != 2 {
		t.Errorf("NumUsers = %d, want 2", ds.NumUsers())
	}
	if ds.NumItems() != 2 {
		t.Errorf("NumItems = %d, want 2", ds.NumItems())
	}
}

func TestTrimCascades(t *testing.T) {
	b := NewBuilder(DefaultScale)
	// Item 9 is rated once; removing it pushes user 1 below the
	// 2-rating threshold; removing user 1 pushes item 1 below its
	// threshold... the trim must iterate to a fixpoint.
	b.MustAdd(1, 1, 3)
	b.MustAdd(1, 9, 3)
	b.MustAdd(2, 1, 3)
	b.MustAdd(2, 2, 3)
	b.MustAdd(3, 2, 3)
	b.MustAdd(3, 1, 3)
	ds := b.Build().Trim(2, 2)
	for _, u := range ds.Users() {
		if len(ds.UserRatings(u)) < 2 {
			t.Errorf("user %d kept with %d ratings", u, len(ds.UserRatings(u)))
		}
	}
	for _, i := range ds.Items() {
		if ds.ItemCount(i) < 2 {
			t.Errorf("item %d kept with %d ratings", i, ds.ItemCount(i))
		}
	}
}

func TestDescribe(t *testing.T) {
	ds := example1(t)
	st := ds.Describe()
	if st.Users != 6 || st.Items != 3 || st.Ratings != 18 {
		t.Errorf("Describe = %+v", st)
	}
	if st.Density != 1.0 {
		t.Errorf("Density = %v, want 1", st.Density)
	}
	// Mean of Table 1 = 47/18.
	want := 47.0 / 18.0
	if diff := st.MeanRate - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("MeanRate = %v, want %v", st.MeanRate, want)
	}
	if st.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestFromRatings(t *testing.T) {
	ds, err := FromRatings(DefaultScale, []Rating{{1, 1, 5}, {2, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRatings() != 2 {
		t.Errorf("NumRatings = %d", ds.NumRatings())
	}
	if _, err := FromRatings(DefaultScale, []Rating{{1, 1, 99}}); err == nil {
		t.Error("out-of-scale rating should error")
	}
}

// Property: every rating added (deduplicated by last-write-wins) is
// retrievable, and Rating agrees with UserRatings.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(DefaultScale)
		want := make(map[[2]int32]float64)
		for i := 0; i < 200; i++ {
			u := UserID(rng.Intn(20))
			it := ItemID(rng.Intn(15))
			v := float64(1 + rng.Intn(5))
			b.MustAdd(u, it, v)
			want[[2]int32{int32(u), int32(it)}] = v
		}
		ds := b.Build()
		if ds.NumRatings() != len(want) {
			return false
		}
		for key, v := range want {
			got, ok := ds.Rating(UserID(key[0]), ItemID(key[1]))
			if !ok || got != v {
				return false
			}
		}
		total := 0
		for _, u := range ds.Users() {
			total += len(ds.UserRatings(u))
		}
		return total == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
