package semantics

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/synth"
)

// TestTopKParallelMatchesSerial drives the chunked accumulation with
// a group large enough to span several chunks (the merged l-th
// group's shape) and requires bitwise-equal output for every worker
// count, for both semantics and with non-uniform AV weights.
func TestTopKParallelMatchesSerial(t *testing.T) {
	ds, err := synth.YahooLike(3*topkChunk+100, 500, 31)
	if err != nil {
		t.Fatal(err)
	}
	members := ds.Users()
	weights := map[dataset.UserID]float64{}
	for i, u := range members {
		if i%2 == 0 {
			weights[u] = 1.5
		}
	}
	for _, sem := range []Semantics{LM, AV} {
		for _, w := range []map[dataset.UserID]float64{nil, weights} {
			serial := Scorer{DS: ds, Weights: w}
			wantItems, wantScores, err := serial.TopK(sem, members, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 16} {
				par := Scorer{DS: ds, Weights: w, Workers: workers}
				items, scores, err := par.TopK(sem, members, 10)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/weighted=%v/workers=%d", sem, w != nil, workers)
				if !reflect.DeepEqual(items, wantItems) {
					t.Fatalf("%s: items %v, want %v", label, items, wantItems)
				}
				if !reflect.DeepEqual(scores, wantScores) {
					t.Fatalf("%s: scores %v, want %v", label, scores, wantScores)
				}
			}
		}
	}
}

// TestTopKParallelNonDyadic runs the chunked accumulation where it is
// not exact: on a 0.1 rating grid, chunk-order AV sums may differ from
// the serial fold in the last ulp. Every worker count >= 2 runs the
// same chunk grid and merge order, so AV must give the same bits at 2,
// 4 and 16 workers; LM, whose min never rounds, must equal the serial
// pass.
func TestTopKParallelNonDyadic(t *testing.T) {
	src, err := synth.YahooLike(2*topkChunk+300, 300, 41)
	if err != nil {
		t.Fatal(err)
	}
	var tenths []dataset.Rating
	for r, u := range src.Users() {
		cols, vals := src.RowIdx(dataset.UserIdx(r))
		for p, j := range cols {
			tenths = append(tenths, dataset.Rating{User: u, Item: src.ItemAt(j), Value: vals[p] / 10})
		}
	}
	ds, err := dataset.FromRatings(dataset.Scale{Min: 0, Max: 1}, tenths)
	if err != nil {
		t.Fatal(err)
	}
	members := ds.Users()
	for _, missing := range []float64{0, 0.05} {
		serial := Scorer{DS: ds, Missing: missing}
		lmItems, lmScores, err := serial.TopK(LM, members, 10)
		if err != nil {
			t.Fatal(err)
		}
		var avItems []dataset.ItemID
		var avScores []float64
		for _, workers := range []int{2, 4, 16} {
			sc := Scorer{DS: ds, Missing: missing, Workers: workers}
			label := fmt.Sprintf("missing=%v/workers=%d", missing, workers)
			items, scores, err := sc.TopK(LM, members, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(items, lmItems) || !reflect.DeepEqual(scores, lmScores) {
				t.Fatalf("%s: LM %v %v, serial %v %v", label, items, scores, lmItems, lmScores)
			}
			items, scores, err = sc.TopK(AV, members, 10)
			if err != nil {
				t.Fatal(err)
			}
			if avItems == nil {
				avItems, avScores = items, scores
				continue
			}
			if !reflect.DeepEqual(items, avItems) || !reflect.DeepEqual(scores, avScores) {
				t.Fatalf("%s: AV %v %v, workers=2 %v %v", label, items, scores, avItems, avScores)
			}
		}
	}
}

// TestTopKParallelSmallGroupStaysSerial checks the threshold: groups
// at or below one chunk take the serial path even with Workers set
// (identical results either way, but the fast path matters for the
// many small finalized buckets).
func TestTopKParallelSmallGroupStaysSerial(t *testing.T) {
	ds, err := synth.YahooLike(200, 100, 37)
	if err != nil {
		t.Fatal(err)
	}
	members := ds.Users()
	serial := Scorer{DS: ds}
	par := Scorer{DS: ds, Workers: 8}
	for _, sem := range []Semantics{LM, AV} {
		wi, ws, err := serial.TopK(sem, members, 5)
		if err != nil {
			t.Fatal(err)
		}
		gi, gs, err := par.TopK(sem, members, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wi, gi) || !reflect.DeepEqual(ws, gs) {
			t.Fatalf("%s: small-group parallel scorer diverged", sem)
		}
	}
}

// TestAccumulateParallelMergeOrder pins the chunk merge against the
// serial fold: every touched slot's stats — the min's keep-first
// tie-break included — and the first-touch order of the touched list
// must come out of accumulateIdxParallel exactly as accumulateIdx
// leaves them. Quarter-step weights keep the weighted sums exact, so
// the AV fields compare bitwise too.
func TestAccumulateParallelMergeOrder(t *testing.T) {
	// Every user rates item 0 with the same value, and one of seven
	// other items with a value that varies across the chunks.
	n := 2*topkChunk + 50
	perUser := make(map[dataset.UserID][]dataset.Entry, n)
	weights := make(map[dataset.UserID]float64, n)
	for u := 0; u < n; u++ {
		perUser[dataset.UserID(u)] = []dataset.Entry{{Item: 0, Value: 3}, {Item: dataset.ItemID(1 + u%7), Value: float64(1 + (u/5)%5)}}
		weights[dataset.UserID(u)] = 0.25 * float64(1+u%3)
	}
	ds, err := dataset.FromUserEntries(dataset.DefaultScale, perUser)
	if err != nil {
		t.Fatal(err)
	}
	// A reversed member list, so the serial first-touch order is not
	// simply ascending item order.
	members := slices.Clone(ds.Users())
	slices.Reverse(members)
	m := ds.NumItems()
	sc := Scorer{DS: ds, Weights: weights}
	serial := new(denseAcc)
	serial.ensure(m)
	sc.accumulateIdx(serial, members)
	sc.Workers = 4
	merged := sc.accumulateIdxParallel(members, m)
	defer merged.release()
	if !slices.Equal(merged.touched, serial.touched) {
		t.Fatalf("touched order: parallel %v, serial %v", merged.touched, serial.touched)
	}
	for _, j := range serial.touched {
		if got, want := merged.stats(ds, j), serial.stats(ds, j); got != want {
			t.Fatalf("slot %d: parallel %+v, serial %+v", j, got, want)
		}
	}
}
