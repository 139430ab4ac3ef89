package dataset

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestIndexSpaceAccessors pins the ID<->index contract: indices are
// dense, assigned in ascending ID order, and every index-space
// accessor agrees with its ID-space adapter.
func TestIndexSpaceAccessors(t *testing.T) {
	b := NewBuilder(DefaultScale)
	b.MustAdd(40, 300, 2)
	b.MustAdd(40, 100, 5)
	b.MustAdd(7, 100, 3)
	b.MustAdd(7, 200, 4)
	b.MustAdd(25, 300, 1)
	ds := b.Build()

	for r, u := range ds.Users() {
		got, ok := ds.UserIdxOf(u)
		if !ok || got != UserIdx(r) {
			t.Fatalf("UserIdxOf(%d) = %d,%v, want %d", u, got, ok, r)
		}
		if ds.UserAt(UserIdx(r)) != u {
			t.Fatalf("UserAt(%d) = %d, want %d", r, ds.UserAt(UserIdx(r)), u)
		}
	}
	for j, it := range ds.Items() {
		got, ok := ds.ItemIdxOf(it)
		if !ok || got != ItemIdx(j) {
			t.Fatalf("ItemIdxOf(%d) = %d,%v, want %d", it, got, ok, j)
		}
		if ds.ItemAt(ItemIdx(j)) != it {
			t.Fatalf("ItemAt(%d) = %d, want %d", j, ds.ItemAt(ItemIdx(j)), it)
		}
	}
	if _, ok := ds.UserIdxOf(99); ok {
		t.Error("unknown user should not resolve")
	}
	if _, ok := ds.ItemIdxOf(99); ok {
		t.Error("unknown item should not resolve")
	}

	// UserRatings must be each CSR row mapped through Items(), with
	// column indices resolving to the same item IDs and values.
	for r := 0; r < ds.NumUsers(); r++ {
		u := ds.UserAt(UserIdx(r))
		entries := ds.UserRatings(u)
		if want := idEntries(ds, UserIdx(r)); !reflect.DeepEqual(entries, want) {
			t.Fatalf("UserRatings(%d) = %v, want RowIdx(%d) through Items() %v", u, entries, r, want)
		}
		cols, vals := ds.RowIdx(UserIdx(r))
		if len(cols) != len(entries) || len(vals) != len(entries) {
			t.Fatalf("RowIdx(%d) lengths %d/%d, want %d", r, len(cols), len(vals), len(entries))
		}
		for p, e := range entries {
			if ds.ItemAt(cols[p]) != e.Item || vals[p] != e.Value {
				t.Fatalf("RowIdx(%d)[%d] = (%d,%v), want (%d,%v)", r, p, cols[p], vals[p], e.Item, e.Value)
			}
			got, ok := ds.RatingIdx(UserIdx(r), cols[p])
			if !ok || got != e.Value {
				t.Fatalf("RatingIdx(%d,%d) = %v,%v, want %v", r, cols[p], got, ok, e.Value)
			}
		}
		if p := len(cols); p > 0 {
			// A probe for an item the user did not rate must miss.
			for j := 0; j < ds.NumItems(); j++ {
				rated := false
				for _, c := range cols {
					if c == ItemIdx(j) {
						rated = true
					}
				}
				if v, ok := ds.RatingIdx(UserIdx(r), ItemIdx(j)); ok != rated {
					t.Fatalf("RatingIdx(%d,%d) = %v,%v, rated=%v", r, j, v, ok, rated)
				}
			}
		}
	}
	for j, it := range ds.Items() {
		if ds.ItemCountIdx(ItemIdx(j)) != ds.ItemCount(it) {
			t.Fatalf("ItemCountIdx(%d) = %d, ItemCount(%d) = %d", j, ds.ItemCountIdx(ItemIdx(j)), it, ds.ItemCount(it))
		}
	}
}

// idEntries maps user r's RowIdx row through Items(): the ID-space
// entries UserRatings must return.
func idEntries(ds *Dataset, r UserIdx) []Entry {
	cols, vals := ds.RowIdx(r)
	es := make([]Entry, len(cols))
	for p, j := range cols {
		es[p] = Entry{Item: ds.Items()[j], Value: vals[p]}
	}
	return es
}

// TestBuilderDuplicateStats pins the documented last-write-wins
// policy and its observability: collapsed duplicates are counted into
// Stats.Duplicates (and FromRatings surfaces them the same way).
func TestBuilderDuplicateStats(t *testing.T) {
	b := NewBuilder(DefaultScale)
	b.MustAdd(1, 1, 2)
	b.MustAdd(1, 1, 5) // duplicate: corrects to 5
	b.MustAdd(1, 2, 3)
	b.MustAdd(2, 1, 4)
	b.MustAdd(1, 1, 1) // second correction of the same pair
	ds := b.Build()
	if v, _ := ds.Rating(1, 1); v != 1 {
		t.Errorf("last write should win: Rating(1,1) = %v, want 1", v)
	}
	st := ds.Describe()
	if st.Duplicates != 2 {
		t.Errorf("Duplicates = %d, want 2", st.Duplicates)
	}
	if st.Ratings != 3 {
		t.Errorf("Ratings = %d, want 3", st.Ratings)
	}

	viaRatings, err := FromRatings(DefaultScale, []Rating{
		{1, 1, 2}, {1, 1, 5}, {2, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := viaRatings.Describe().Duplicates; got != 1 {
		t.Errorf("FromRatings Duplicates = %d, want 1", got)
	}
	if v, _ := viaRatings.Rating(1, 1); v != 5 {
		t.Errorf("FromRatings last write should win: %v", v)
	}

	// A derived dataset starts with a clean slate.
	if got := ds.SubsetUsers([]UserID{1}).Describe().Duplicates; got != 0 {
		t.Errorf("derived dataset Duplicates = %d, want 0", got)
	}
}

// TestFromUserEntriesDuplicateStats covers the bulk constructor's
// dedup counting (last occurrence wins, stable under prior sorting).
func TestFromUserEntriesDuplicateStats(t *testing.T) {
	ds, err := FromUserEntries(DefaultScale, map[UserID][]Entry{
		7: {{Item: 3, Value: 2}, {Item: 1, Value: 4}, {Item: 3, Value: 5}},
		9: {{Item: 1, Value: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ds.Rating(7, 3); v != 5 {
		t.Errorf("last occurrence should win: Rating(7,3) = %v, want 5", v)
	}
	if got := ds.Describe().Duplicates; got != 1 {
		t.Errorf("Duplicates = %d, want 1", got)
	}
	if ds.NumRatings() != 3 {
		t.Errorf("NumRatings = %d, want 3", ds.NumRatings())
	}
}

// TestSubsetUsersEdgeCases drives the index-space rebuild through its
// boundary inputs: empty selection, only-unknown selection, and a
// selection that renumbers items.
func TestSubsetUsersEdgeCases(t *testing.T) {
	ds := example1(t)

	empty := ds.SubsetUsers(nil)
	if empty.NumUsers() != 0 || empty.NumItems() != 0 || empty.NumRatings() != 0 {
		t.Errorf("empty selection: %v", empty.Describe())
	}
	if _, ok := empty.Rating(0, 0); ok {
		t.Error("empty subset should have no ratings")
	}

	unknown := ds.SubsetUsers([]UserID{77, 78})
	if unknown.NumUsers() != 0 {
		t.Errorf("unknown-only selection kept %d users", unknown.NumUsers())
	}

	// Items are renumbered densely after a subset drops some.
	b := NewBuilder(DefaultScale)
	b.MustAdd(1, 10, 2)
	b.MustAdd(2, 20, 3)
	b.MustAdd(3, 30, 4)
	sparse := b.Build()
	sub := sparse.SubsetUsers([]UserID{1, 3})
	if sub.NumItems() != 2 {
		t.Fatalf("NumItems = %d, want 2", sub.NumItems())
	}
	if j, ok := sub.ItemIdxOf(30); !ok || j != 1 {
		t.Errorf("item 30 should renumber to index 1, got %d,%v", j, ok)
	}
	if _, ok := sub.ItemIdxOf(20); ok {
		t.Error("dropped item 20 should not resolve")
	}
	if v, ok := sub.Rating(3, 30); !ok || v != 4 {
		t.Errorf("Rating(3,30) = %v,%v, want 4", v, ok)
	}
}

// TestTrimToEmpty verifies the trim-to-empty fixpoint: thresholds no
// user or item can meet drain the dataset completely, and trimming
// the empty result is stable.
func TestTrimToEmpty(t *testing.T) {
	ds := example1(t)
	emptied := ds.Trim(100, 1)
	if emptied.NumUsers() != 0 || emptied.NumItems() != 0 || emptied.NumRatings() != 0 {
		t.Fatalf("trim to empty left %v", emptied.Describe())
	}
	again := emptied.Trim(2, 2)
	if again.NumUsers() != 0 {
		t.Fatalf("re-trimming the empty dataset changed it: %v", again.Describe())
	}
	byItems := ds.Trim(1, 100)
	if byItems.NumRatings() != 0 {
		t.Fatalf("item-side trim to empty left %v", byItems.Describe())
	}
}

// TestSubsetLargeConsistency cross-checks the index-space rebuild
// against per-rating lookups on a larger random instance.
func TestSubsetLargeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(DefaultScale)
	for i := 0; i < 3000; i++ {
		b.MustAdd(UserID(rng.Intn(150)), ItemID(rng.Intn(80)), float64(1+rng.Intn(5)))
	}
	ds := b.Build()
	var keep []UserID
	for i, u := range ds.Users() {
		if i%3 == 0 {
			keep = append(keep, u)
		}
	}
	sub := ds.SubsetUsers(keep)
	if sub.NumUsers() != len(keep) {
		t.Fatalf("NumUsers = %d, want %d", sub.NumUsers(), len(keep))
	}
	total := 0
	for _, u := range keep {
		want := ds.UserRatings(u)
		got := sub.UserRatings(u)
		if len(got) != len(want) {
			t.Fatalf("user %d: %d ratings, want %d", u, len(got), len(want))
		}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("user %d entry %d: %+v != %+v", u, p, got[p], want[p])
			}
		}
		total += len(got)
	}
	if sub.NumRatings() != total {
		t.Fatalf("NumRatings = %d, want %d", sub.NumRatings(), total)
	}
	for _, it := range sub.Items() {
		if sub.ItemCount(it) == 0 {
			t.Fatalf("item %d kept with zero ratings", it)
		}
	}
}
