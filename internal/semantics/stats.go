package semantics

import (
	"cmp"
	"slices"

	"groupform/internal/dataset"
)

// ItemStats is one item's partial score accumulation over a subset of
// a group's members — the record a shard ships to the router so the
// group score over the full membership can be reassembled without
// moving ratings, and the record topKDense and ItemScoreIdx score
// their own folds through. Both semantics decompose over a member
// partition: Merge folds the parts, Score finishes the whole.
//
//	LM: score = min over the parts' minima, dropped to Missing when
//	    the summed rater count falls short of the full membership — an
//	    exact reconstruction, min is associative.
//	AV: score = Σ WSum + (totalW − Σ WRaters) · Missing — the
//	    member-order rating sum reassociated into per-part partials
//	    (bounded float error; see docs/ARCHITECTURE.md, "The
//	    scatter-gather tier").
//
// A group that is "everyone but a few" also has a record by
// subtraction: ComplementTopKInto forms each item's stats as the
// dataset's per-level rating counts minus the excluded members'
// ratings. Its counts and minimum are exact, and so is its AV sum on
// an exact rating grid (dataset.Levels.Exact), where every
// association of the sum above rounds to the same bits.
//
// It is the /shard/scores wire record: internal/wire carries each
// field as is, in a fixed 32-byte layout.
type ItemStats struct {
	// Item is the item's ID.
	Item dataset.ItemID
	// Min is the minimum rating among this subset's raters of Item.
	// It is meaningful only when Count > 0 and reads 0 otherwise, so
	// a record nobody rated has one encoding.
	Min float64
	// Count is the number of subset members who rated Item.
	Count int
	// WSum is the weighted rating sum over this subset's raters.
	WSum float64
	// WRaters is the summed weight of this subset's raters.
	WRaters float64
}

// Merge folds o — the same item's stats over a later, disjoint part of
// the membership — into st. The min is taken from o only when o saw a
// rater, and keeps the earlier value on ties (strict <); counts add as
// integers and the partial sums add in merge order. Merging parts left
// to right therefore replays accumulateIdx's keep-first fold.
func (st *ItemStats) Merge(o ItemStats) {
	if o.Count > 0 && (st.Count == 0 || o.Min < st.Min) {
		st.Min = o.Min
	}
	st.Count += o.Count
	st.WSum += o.WSum
	st.WRaters += o.WRaters
}

// Score returns sc(g, Item) under sem from stats over the whole
// membership: members is the group size, totalW its summed weight,
// and every member who did not rate Item contributes missing.
func (st ItemStats) Score(sem Semantics, members int, totalW, missing float64) float64 {
	if sem == AV {
		return st.WSum + (totalW-st.WRaters)*missing
	}
	if st.Count == 0 || (st.Count < members && missing < st.Min) {
		return missing
	}
	return st.Min
}

// TopKFromStats is TopK over stats already merged across a member
// partition: every record is scored through Score, the best k are kept
// in the pipeline's candidate order, and a short list is padded with
// the catalog's unrated items, in catalog (index) order, at the
// imputed score — topKDense's selection and padding. stats lists each
// rated item once, in any order; catalog is read only when fewer than
// k items were rated.
func TopKFromStats(sem Semantics, stats []ItemStats, members int, totalW, missing float64, k int, catalog []dataset.ItemID) ([]dataset.ItemID, []float64) {
	all := make([]scoredItem, len(stats))
	for i, st := range stats {
		all[i] = scoredItem{st.Item, st.Score(sem, members, totalW, missing)}
	}
	items, scores := split(selectScored(all, k), make([]dataset.ItemID, 0, k), make([]float64, 0, k))
	if len(items) < k {
		rated := make(map[dataset.ItemID]bool, len(stats))
		for _, st := range stats {
			rated[st.Item] = true
		}
		pad := imputed(sem, totalW, missing)
		for _, it := range catalog {
			if len(items) == k {
				break
			}
			if !rated[it] {
				items = append(items, it)
				scores = append(scores, pad)
			}
		}
	}
	return items, scores
}

// StatsAcc holds one group's per-item ItemStats records in an
// index-space accumulator that is reused from group to group, so a
// shard answers a whole batch of gather probes with arrays sized to
// the catalog once. The zero value is ready to use; a StatsAcc must
// not be used from two goroutines at once.
type StatsAcc struct {
	ds *dataset.Dataset
	da denseAcc
}

// GroupStats folds the members' ratings into acc, replacing the group
// it held, and returns how many of the members sc.DS holds. The others
// contribute nothing: a shard is asked about a whole group and answers
// for its residents, and the router checks that the resident counts of
// all shards sum to the group size. Each item's record folds the
// residents in member order, as topKDense's accumulator does.
func (sc Scorer) GroupStats(acc *StatsAcc, members []dataset.UserID) int {
	ds := sc.DS
	acc.da.clear()
	acc.da.ensure(ds.NumItems())
	acc.ds = ds
	residents := 0
	for _, u := range members {
		if _, ok := ds.UserIdxOf(u); ok {
			residents++
		}
	}
	sc.accumulateIdx(&acc.da, members)
	slices.SortFunc(acc.da.touched, func(a, b dataset.ItemIdx) int {
		return cmp.Compare(ds.ItemAt(a), ds.ItemAt(b))
	})
	return residents
}

// Rated is the number of items the group's residents rated.
func (acc *StatsAcc) Rated() int { return len(acc.da.touched) }

// At returns the record of the i-th rated item, in ascending item ID
// order, 0 <= i < Rated().
func (acc *StatsAcc) At(i int) ItemStats {
	return acc.da.stats(acc.ds, acc.da.touched[i])
}

// Of returns item's record. An item no resident rated, or one the
// dataset does not know, reports Count 0 and Min 0.
func (acc *StatsAcc) Of(item dataset.ItemID) ItemStats {
	if j, ok := acc.ds.ItemIdxOf(item); ok && acc.da.count[j] > 0 {
		return acc.da.stats(acc.ds, j)
	}
	return ItemStats{Item: item}
}
