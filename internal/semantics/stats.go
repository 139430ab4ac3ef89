package semantics

import (
	"groupform/internal/dataset"
	"groupform/internal/gferr"
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
// Its JSON encoding is the /shard/scores wire record.
type ItemStats struct {
	// Item is the item's ID.
	Item dataset.ItemID `json:"item"`
	// Min is the minimum rating among this subset's raters of Item.
	// It is meaningful only when Count > 0 and reads 0 otherwise, so
	// every record encodes (JSON has no +Inf).
	Min float64 `json:"min"`
	// Count is the number of subset members who rated Item.
	Count int `json:"count"`
	// WSum is the weighted rating sum over this subset's raters.
	WSum float64 `json:"wsum"`
	// WRaters is the summed weight of this subset's raters.
	WRaters float64 `json:"wraters"`
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

// checkResident rejects members unknown to the dataset. On a shard
// slice such a member means the router routed a user to the wrong
// shard, and silently scoring them as all-Missing would corrupt the
// merged group scores instead of surfacing the topology bug.
func (sc Scorer) checkResident(members []dataset.UserID) error {
	for _, u := range members {
		if _, ok := sc.DS.UserIdxOf(u); !ok {
			return gferr.BadConfigf("semantics: member %d is not in the dataset", u)
		}
	}
	return nil
}

// GroupStats accumulates per-item partial stats over the members'
// rated items, returned in ascending item-index order. Members unknown
// to the dataset are rejected (see checkResident).
func (sc Scorer) GroupStats(members []dataset.UserID) ([]ItemStats, error) {
	if err := sc.checkResident(members); err != nil {
		return nil, err
	}
	// A fresh accumulator rather than a denseAccPool lease: leasing
	// parks a catalog-sized array set in the pool per concurrent
	// stats request, which measurably raised a shard's peak RSS.
	m := sc.DS.NumItems()
	da := new(denseAcc)
	da.ensure(m)
	sc.accumulateIdx(da, members)
	out := make([]ItemStats, 0, len(da.touched))
	for j := range dataset.ItemIdx(m) {
		if da.count[j] > 0 {
			out = append(out, da.stats(sc.DS, j))
		}
	}
	return out, nil
}

// GroupStatsFor accumulates partial stats for exactly the given items,
// aligned positionally with the input; an item no member rated, or one
// the dataset does not know, reports Count 0 and Min 0. This is the
// probe-mode companion of GroupStats: the router asks each shard for
// the stats of a fixed item list when refolding a bucket piece's
// stored positions. Members unknown to the dataset are rejected (see
// checkResident).
func (sc Scorer) GroupStatsFor(members []dataset.UserID, items []dataset.ItemID) ([]ItemStats, error) {
	if err := sc.checkResident(members); err != nil {
		return nil, err
	}
	type probe struct {
		q int
		j dataset.ItemIdx
	}
	out := make([]ItemStats, len(items))
	probes := make([]probe, 0, len(items))
	for q, it := range items {
		out[q].Item = it
		if j, ok := sc.DS.ItemIdxOf(it); ok {
			probes = append(probes, probe{q, j})
		}
	}
	for _, u := range members {
		r, _ := sc.DS.UserIdxOf(u)
		w := sc.Weight(u)
		for _, p := range probes {
			if v, rated := sc.DS.RatingIdx(r, p.j); rated {
				out[p.q].Merge(ItemStats{Min: v, Count: 1, WSum: w * v, WRaters: w})
			}
		}
	}
	return out, nil
}
