package rank

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/synth"
)

func TestAllTopKParallelMatchesSerial(t *testing.T) {
	ds, err := synth.YahooLike(2000, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := AllTopK(ds, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8, 100} {
		got, err := AllTopKParallel(context.Background(), ds, 5, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d: parallel pref lists differ from serial", w)
		}
	}
}

func TestAllTopKParallelValidates(t *testing.T) {
	ds, err := synth.YahooLike(50, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AllTopKParallel(context.Background(), ds, 0, 0, 4); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := AllTopKParallel(context.Background(), ds, ds.NumItems()+1, 0, 4); err == nil {
		t.Error("k > items should fail")
	}
}

// TestAllTopKOverlayMatchesRebuild ranks an upserted dataset — appended
// users and items, re-ratings, and rows shorter than k that pad — from
// its overlay rows, and requires the lists its Compact() form and a
// from-scratch build of the same ratings give, at every k from 1 to
// past the longest row and at 1 and 4 workers. TopK must agree with
// the bulk path user by user.
func TestAllTopKOverlayMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var log []dataset.Rating
	for u := dataset.UserID(10); u < 50; u++ {
		for it := dataset.ItemID(100); it < 130; it++ {
			if rng.Intn(3) == 0 {
				log = append(log, dataset.Rating{User: u, Item: it, Value: float64(1 + rng.Intn(5))})
			}
		}
	}
	base, err := dataset.FromRatings(dataset.DefaultScale, log)
	if err != nil {
		t.Fatal(err)
	}
	batch := []dataset.Rating{
		{User: 50, Item: 131, Value: 4}, // appended user and item: a one-rating row
		{User: 51, Item: 100, Value: 2}, // appended user with a two-rating row
		{User: 51, Item: 130, Value: 2},
		{User: 12, Item: 130, Value: 5}, // existing users rate the appended items
		{User: 13, Item: 131, Value: 1},
	}
	for i := 0; i < len(log); i += 7 { // re-ratings
		r := log[i]
		batch = append(batch, dataset.Rating{User: r.User, Item: r.Item, Value: float64(1 + int(r.Value+2)%5)})
	}
	ds, res, err := base.Upsert(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilt || res.NewUsers != 2 || res.NewItems != 2 || ds.Overlay().DirtyRows == 0 {
		t.Fatalf("upsert took the wrong path: %+v, overlay %+v", res, ds.Overlay())
	}
	rebuilt, err := dataset.FromRatings(dataset.DefaultScale, slices.Concat(log, batch))
	if err != nil {
		t.Fatal(err)
	}
	compact := ds.Compact()

	longest := 0
	for r := range ds.Users() {
		cols, _ := ds.RowIdx(dataset.UserIdx(r))
		longest = max(longest, len(cols))
	}
	for k := 1; k <= longest+1 && k <= ds.NumItems(); k++ {
		for _, pad := range []float64{0, 2.5} {
			want, err := AllTopK(compact, k, pad)
			if err != nil {
				t.Fatal(err)
			}
			fromScratch, err := AllTopK(rebuilt, k, pad)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, fromScratch) {
				t.Fatalf("k=%d pad=%v: Compact() lists differ from a FromRatings rebuild", k, pad)
			}
			for _, w := range []int{1, 4} {
				got, err := AllTopKParallel(context.Background(), ds, k, pad, w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d pad=%v workers=%d: upserted lists differ from Compact()", k, pad, w)
				}
			}
			for r, u := range ds.Users() {
				p, err := TopK(ds, u, k, pad)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p, want[r]) {
					t.Fatalf("k=%d pad=%v: TopK(%d) = %v, want %v", k, pad, u, p, want[r])
				}
			}
		}
	}
}
