package dataset

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"groupform/internal/gferr"
)

// replayOracle is the from-scratch truth for a rating log: the same
// Builder path production loaders use, fed the full history in
// order. Overlay datasets must be indistinguishable from it.
func replayOracle(t *testing.T, log []Rating) *Dataset {
	t.Helper()
	ds, err := FromRatings(DefaultScale, log)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// assertSameDataset byte-compares every public accessor of got
// against want: ID tables, sizes, each row in both ID and index
// space, per-item counts, random-access lookups and the Describe
// summary (including Duplicates — the shared last-write-wins
// counting is part of the contract).
func assertSameDataset(t *testing.T, tag string, got, want *Dataset) {
	t.Helper()
	if !reflect.DeepEqual(got.Users(), want.Users()) {
		t.Fatalf("%s: Users() = %v, want %v", tag, got.Users(), want.Users())
	}
	if !reflect.DeepEqual(got.Items(), want.Items()) {
		t.Fatalf("%s: Items() = %v, want %v", tag, got.Items(), want.Items())
	}
	if got.NumRatings() != want.NumRatings() {
		t.Fatalf("%s: NumRatings() = %d, want %d", tag, got.NumRatings(), want.NumRatings())
	}
	for r := 0; r < want.NumUsers(); r++ {
		u := want.UserAt(UserIdx(r))
		if gr, ok := got.UserIdxOf(u); !ok || gr != UserIdx(r) {
			t.Fatalf("%s: UserIdxOf(%d) = (%d,%v), want (%d,true)", tag, u, gr, ok, r)
		}
		gc, gv := got.RowIdx(UserIdx(r))
		wc, wv := want.RowIdx(UserIdx(r))
		if !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: RowIdx(user %d) = (%v,%v), want (%v,%v)", tag, u, gc, gv, wc, wv)
		}
		if ge, we := got.UserRatings(u), idEntries(want, UserIdx(r)); !reflect.DeepEqual(ge, we) {
			t.Fatalf("%s: UserRatings(%d) = %v, want RowIdx through Items() %v", tag, u, ge, we)
		}
	}
	for j := 0; j < want.NumItems(); j++ {
		it := want.ItemAt(ItemIdx(j))
		if gj, ok := got.ItemIdxOf(it); !ok || gj != ItemIdx(j) {
			t.Fatalf("%s: ItemIdxOf(%d) = (%d,%v), want (%d,true)", tag, it, gj, ok, j)
		}
		if got.ItemCount(it) != want.ItemCount(it) {
			t.Fatalf("%s: ItemCount(%d) = %d, want %d", tag, it, got.ItemCount(it), want.ItemCount(it))
		}
	}
	if gd, wd := got.Describe(), want.Describe(); !reflect.DeepEqual(gd, wd) {
		t.Fatalf("%s: Describe() = %+v, want %+v", tag, gd, wd)
	}
	assertSameLevels(t, tag, got, want)
}

func TestUpsertBasics(t *testing.T) {
	base := replayOracle(t, []Rating{
		{User: 1, Item: 10, Value: 5}, {User: 1, Item: 11, Value: 3},
		{User: 2, Item: 10, Value: 2}, {User: 3, Item: 12, Value: 4},
	})
	log := []Rating{
		{User: 1, Item: 10, Value: 5}, {User: 1, Item: 11, Value: 3},
		{User: 2, Item: 10, Value: 2}, {User: 3, Item: 12, Value: 4},
	}

	// Re-rating (collapse), a new rating for an existing user, a new
	// user and a new item — all in one batch, all on the overlay fast
	// path (new IDs sort after every existing one).
	batch := []Rating{
		{User: 1, Item: 10, Value: 1}, // re-rating: last write wins
		{User: 2, Item: 12, Value: 5}, // new rating, existing pair space
		{User: 9, Item: 11, Value: 4}, // new user
		{User: 3, Item: 99, Value: 2}, // new item
	}
	nds, res, err := base.Upsert(batch)
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, batch...)
	if res.Rebuilt {
		t.Fatalf("appendable batch took the rebuild fallback: %+v", res)
	}
	if res.Applied != 4 || res.Collapsed != 1 || res.NewUsers != 1 || res.NewItems != 1 {
		t.Fatalf("UpsertResult = %+v, want Applied=4 Collapsed=1 NewUsers=1 NewItems=1", res)
	}
	if want := []UserID{1, 2, 3, 9}; !reflect.DeepEqual(res.DirtyUsers, want) {
		t.Fatalf("DirtyUsers = %v, want %v", res.DirtyUsers, want)
	}
	if st := nds.Overlay(); st.Upserts != 4 || st.DirtyRows != 4 || st.NewUsers != 1 || st.NewItems != 1 {
		t.Fatalf("Overlay() = %+v", st)
	}
	if v, ok := nds.Rating(1, 10); !ok || v != 1 {
		t.Fatalf("Rating(1,10) = (%v,%v), want (1,true) — last write must win", v, ok)
	}
	assertSameDataset(t, "after batch", nds, replayOracle(t, log))

	// The receiver must be untouched.
	if base.NumRatings() != 4 || base.Overlay() != (OverlayStats{}) {
		t.Fatalf("Upsert mutated its receiver: ratings=%d overlay=%+v", base.NumRatings(), base.Overlay())
	}
	if v, ok := base.Rating(1, 10); !ok || v != 5 {
		t.Fatalf("receiver Rating(1,10) = (%v,%v), want (5,true)", v, ok)
	}

	// Chained overlays keep merging.
	nds2, res2, err := nds.Upsert([]Rating{{User: 9, Item: 10, Value: 3}, {User: 9, Item: 11, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, Rating{User: 9, Item: 10, Value: 3}, Rating{User: 9, Item: 11, Value: 1})
	if res2.Collapsed != 1 || res2.NewUsers != 0 {
		t.Fatalf("chained UpsertResult = %+v, want Collapsed=1 NewUsers=0", res2)
	}
	if st := nds2.Overlay(); st.Upserts != 6 {
		t.Fatalf("chained Overlay().Upserts = %d, want 6", st.Upserts)
	}
	assertSameDataset(t, "chained", nds2, replayOracle(t, log))

	// Compact materializes the identical dataset, overlay gone.
	comp := nds2.Compact()
	if comp.Overlay() != (OverlayStats{}) {
		t.Fatalf("Compact left an overlay: %+v", comp.Overlay())
	}
	assertSameDataset(t, "compacted", comp, replayOracle(t, log))
	if comp.Compact() != comp {
		t.Fatal("Compact of a compact dataset must return the receiver")
	}
}

func TestUpsertRebuildFallback(t *testing.T) {
	log := []Rating{
		{User: 10, Item: 5, Value: 3}, {User: 20, Item: 6, Value: 4}, {User: 30, Item: 7, Value: 5},
	}
	base := replayOracle(t, log)

	// User 15 sorts inside the existing ID range: index assignment
	// must renumber, so the overlay fast path is off the table.
	batch := []Rating{{User: 15, Item: 5, Value: 2}, {User: 10, Item: 5, Value: 1}}
	nds, res, err := base.Upsert(batch)
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, batch...)
	if !res.Rebuilt || res.DirtyUsers != nil {
		t.Fatalf("UpsertResult = %+v, want Rebuilt=true DirtyUsers=nil", res)
	}
	if res.Applied != 2 || res.Collapsed != 1 || res.NewUsers != 1 || res.NewItems != 0 {
		t.Fatalf("UpsertResult = %+v, want Applied=2 Collapsed=1 NewUsers=1", res)
	}
	if nds.Overlay() != (OverlayStats{}) {
		t.Fatalf("rebuilt dataset still carries an overlay: %+v", nds.Overlay())
	}
	assertSameDataset(t, "rebuilt", nds, replayOracle(t, log))

	// A mid-range item triggers the same fallback.
	base2, _, err := nds.Upsert([]Rating{{User: 40, Item: 6, Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, Rating{User: 40, Item: 6, Value: 2}) // appendable: no rebuild
	nds2, res2, err := base2.Upsert([]Rating{{User: 40, Item: 1, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, Rating{User: 40, Item: 1, Value: 5})
	if !res2.Rebuilt || res2.NewItems != 1 {
		t.Fatalf("mid-range item UpsertResult = %+v, want Rebuilt=true NewItems=1", res2)
	}
	assertSameDataset(t, "item rebuild", nds2, replayOracle(t, log))
}

func TestUpsertErrors(t *testing.T) {
	base := replayOracle(t, []Rating{{User: 1, Item: 1, Value: 3}})
	if _, _, err := base.Upsert(nil); !errors.Is(err, gferr.ErrBadConfig) {
		t.Fatalf("empty batch: err = %v, want ErrBadConfig", err)
	}
	if _, _, err := base.Upsert([]Rating{{User: 1, Item: 1, Value: 99}}); !errors.Is(err, gferr.ErrBadConfig) {
		t.Fatalf("out-of-scale: err = %v, want ErrBadConfig", err)
	}
	if base.NumRatings() != 1 {
		t.Fatal("failed Upsert mutated its receiver")
	}
}

// TestDuplicatesOneCodePath pins the satellite: Builder.Add,
// FromUserEntries and the Upsert overlay merge all collapse
// duplicates through dedupLastWins, so the same rating history
// yields the same value AND the same Stats.Duplicates however it
// arrives.
func TestDuplicatesOneCodePath(t *testing.T) {
	history := []Rating{
		{User: 1, Item: 1, Value: 5}, {User: 1, Item: 2, Value: 4},
		{User: 1, Item: 1, Value: 2}, // dup #1
		{User: 2, Item: 1, Value: 3},
		{User: 1, Item: 1, Value: 4}, // dup #2
		{User: 2, Item: 1, Value: 1}, // dup #3
	}

	viaBuilder := replayOracle(t, history)

	perUser := map[UserID][]Entry{}
	for _, r := range history {
		perUser[r.User] = append(perUser[r.User], Entry{Item: r.Item, Value: r.Value})
	}
	viaEntries, err := FromUserEntries(DefaultScale, perUser)
	if err != nil {
		t.Fatal(err)
	}

	base := replayOracle(t, history[:2])
	viaUpsert := base
	for _, r := range history[2:] {
		if viaUpsert, _, err = viaUpsert.Upsert([]Rating{r}); err != nil {
			t.Fatal(err)
		}
	}

	for tag, ds := range map[string]*Dataset{"FromUserEntries": viaEntries, "Upsert": viaUpsert, "Upsert+Compact": viaUpsert.Compact()} {
		assertSameDataset(t, tag, ds, viaBuilder)
	}
	if d := viaBuilder.Describe().Duplicates; d != 3 {
		t.Fatalf("Duplicates = %d, want 3", d)
	}
}

// TestUpsertMetamorphicParity is the dataset half of the metamorphic
// harness: a randomized interleaving of upsert batches, compactions
// and derived-dataset operations, byte-compared against a
// from-scratch replay oracle at every step.
func TestUpsertMetamorphicParity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var log []Rating
	for u := 0; u < 12; u++ {
		for k := 0; k < 4; k++ {
			log = append(log, Rating{User: UserID(u), Item: ItemID(rng.Intn(10)), Value: float64(1 + rng.Intn(5))})
		}
	}
	cur := replayOracle(t, log)
	maxUser, maxItem := int32(11), int32(9)

	for step := 0; step < 60; step++ {
		var batch []Rating
		for n := 1 + rng.Intn(5); n > 0; n-- {
			r := Rating{
				User:  UserID(rng.Intn(int(maxUser) + 1)),
				Item:  ItemID(rng.Intn(int(maxItem) + 1)),
				Value: float64(1 + rng.Intn(5)),
			}
			switch rng.Intn(10) {
			case 0: // fresh user, appendable
				maxUser++
				r.User = UserID(maxUser)
			case 1: // fresh item, appendable
				maxItem++
				r.Item = ItemID(maxItem)
			case 2: // fresh mid-range user: forces the rebuild fallback
				r.User = UserID(rng.Intn(int(maxUser))*1000 + 500) // may or may not exist
			}
			batch = append(batch, r)
		}
		// Renormalize the generated mid-range IDs into the tracked
		// range so maxUser stays an upper bound.
		for i := range batch {
			if int32(batch[i].User) > maxUser {
				maxUser = int32(batch[i].User)
			}
			if int32(batch[i].Item) > maxItem {
				maxItem = int32(batch[i].Item)
			}
		}
		nds, res, err := cur.Upsert(batch)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		log = append(log, batch...)
		cur = nds

		oracle := replayOracle(t, log)
		assertSameDataset(t, "step", cur, oracle)
		if res.Rebuilt && cur.Overlay() != (OverlayStats{}) {
			t.Fatalf("step %d: rebuilt dataset carries an overlay", step)
		}

		switch rng.Intn(5) {
		case 0:
			cur = cur.Compact()
			assertSameDataset(t, "compact", cur, oracle)
		case 1:
			// Derived-dataset ops run on the compacted truth even when
			// the receiver carries an overlay.
			sel := oracle.Users()[:1+rng.Intn(len(oracle.Users()))]
			assertSameDataset(t, "subset", cur.SubsetUsers(sel), oracle.SubsetUsers(sel))
		case 2:
			assertSameDataset(t, "trim", cur.Trim(2, 2), oracle.Trim(2, 2))
		case 3:
			var a, b bytes.Buffer
			if err := WriteBinary(&a, cur); err != nil {
				t.Fatal(err)
			}
			if err := WriteBinary(&b, oracle); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("step %d: binary serialization of overlay dataset differs from oracle", step)
			}
		}
	}
}
