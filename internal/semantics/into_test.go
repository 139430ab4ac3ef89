package semantics

import (
	"reflect"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/synth"
)

// TestTopKIntoMatchesTopK pins the Into variant against the
// allocating wrapper across both semantics, with one scratch reused
// (dirty) across every call, and checks the returned slices really
// alias the scratch's buffers.
func TestTopKIntoMatchesTopK(t *testing.T) {
	ds, err := synth.YahooLike(400, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	users := ds.Users()
	s := new(TopKScratch)
	sc := Scorer{DS: ds}
	for _, sem := range []Semantics{LM, AV} {
		for _, size := range []int{1, 3, 50} {
			members := users[:size]
			for _, k := range []int{1, 5, ds.NumItems()} {
				wantItems, wantScores, err := sc.TopK(sem, members, k)
				if err != nil {
					t.Fatal(err)
				}
				gotItems, gotScores, err := sc.TopKInto(sem, members, k, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotItems, wantItems) || !reflect.DeepEqual(gotScores, wantScores) {
					t.Fatalf("%v/size=%d/k=%d: TopKInto differs from TopK", sem, size, k)
				}
				if len(gotItems) > 0 && (&gotItems[0] != &s.items[0] || &gotScores[0] != &s.scores[0]) {
					t.Fatalf("%v/size=%d/k=%d: TopKInto results do not alias the scratch", sem, size, k)
				}
			}
		}
	}
	// Error paths must not corrupt the scratch.
	if _, _, err := sc.TopKInto(LM, users[:1], 0, s); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, _, err := sc.TopKInto(LM, nil, 3, s); err == nil {
		t.Fatal("empty group must error")
	}
	if _, _, err := sc.TopKInto(LM, users[:2], 3, s); err != nil {
		t.Fatalf("scratch unusable after error paths: %v", err)
	}
}

// TestTopKIntoSerialZeroAlloc pins the scratch path's allocation
// contract: a warm serial TopKInto does not allocate.
func TestTopKIntoSerialZeroAlloc(t *testing.T) {
	ds, err := synth.YahooLike(2000, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	members := ds.Users()[:500]
	sc := Scorer{DS: ds}
	s := new(TopKScratch)
	var items []dataset.ItemID
	if _, _, err := sc.TopKInto(LM, members, 5, s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		its, _, err := sc.TopKInto(LM, members, 5, s)
		if err != nil {
			t.Fatal(err)
		}
		items = its
	})
	_ = items
	if allocs != 0 {
		t.Fatalf("warm TopKInto allocated %v times per call, want 0", allocs)
	}
}
