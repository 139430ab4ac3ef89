// Package semantics implements the group-recommendation semantics of
// the paper: Least Misery (LM) and Aggregate Voting (AV) group item
// scores (Definitions 1 and 2), top-k list computation for a given
// group, and the Max/Min/Sum/WeightedSum satisfaction aggregations of
// Section 2.3 and Section 6.
package semantics

import (
	"fmt"
	"math"
	"sync"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/selection"
)

// Semantics selects how a group's score for a single item is derived
// from its members' scores.
type Semantics int

const (
	// LM is Least Misery: sc(g,i) = min over members of sc(u,i).
	LM Semantics = iota
	// AV is Aggregate Voting: sc(g,i) = sum over members of sc(u,i).
	AV
)

// String returns the paper's abbreviation.
func (s Semantics) String() string {
	switch s {
	case LM:
		return "LM"
	case AV:
		return "AV"
	}
	return fmt.Sprintf("Semantics(%d)", int(s))
}

// Valid reports whether s is a known semantics.
func (s Semantics) Valid() bool { return s == LM || s == AV }

// Aggregation selects how a group's satisfaction with a top-k list is
// derived from the k item scores.
type Aggregation int

const (
	// Max scores the list by its first (best) item.
	Max Aggregation = iota
	// Min scores the list by its k-th (worst) item.
	Min
	// Sum scores the list by the sum over all k items.
	Sum
	// WeightedSumPos scores by sum of score[j]/(j+1) (position
	// weights; Section 6, "weights at the item list level").
	WeightedSumPos
	// WeightedSumLog scores by sum of score[j]/log2(j+2)
	// (logarithmic discount, DCG-style).
	WeightedSumLog
)

// String returns a short name.
func (a Aggregation) String() string {
	switch a {
	case Max:
		return "MAX"
	case Min:
		return "MIN"
	case Sum:
		return "SUM"
	case WeightedSumPos:
		return "WSUM-POS"
	case WeightedSumLog:
		return "WSUM-LOG"
	}
	return fmt.Sprintf("Aggregation(%d)", int(a))
}

// Valid reports whether a is a known aggregation.
func (a Aggregation) Valid() bool {
	switch a {
	case Max, Min, Sum, WeightedSumPos, WeightedSumLog:
		return true
	}
	return false
}

// Weight returns the positional weight the aggregation assigns to the
// item at 0-based position j. Max/Min/Sum use implicit indicator
// weights and are not expressed through this function.
func (a Aggregation) Weight(j int) float64 {
	switch a {
	case WeightedSumPos:
		return 1 / float64(j+1)
	case WeightedSumLog:
		return 1 / math.Log2(float64(j+2))
	}
	return 1
}

// Aggregate computes the group satisfaction gs(I_g^k) from the group's
// item scores, ordered best-first. Empty score lists aggregate to 0.
func (a Aggregation) Aggregate(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	switch a {
	case Max:
		return scores[0]
	case Min:
		return scores[len(scores)-1]
	case Sum:
		s := 0.0
		for _, v := range scores {
			s += v
		}
		return s
	case WeightedSumPos, WeightedSumLog:
		s := 0.0
		for j, v := range scores {
			s += a.Weight(j) * v
		}
		return s
	}
	return 0
}

// Scorer evaluates group scores over a dataset. Missing is the value
// imputed for an unrated (user, item) pair; the paper assumes a
// complete matrix (observed or predicted), so Missing only matters on
// sparse data. A Missing of 0, below rmin, makes LM ignore items not
// rated by every member and makes AV weight items by their rater
// count — both conservative choices.
type Scorer struct {
	DS      *dataset.Dataset
	Missing float64
	// Weights optionally assigns per-user importance under AV
	// semantics (the paper's "forming groups where the individual
	// members are not treated equally" future-work direction): the
	// AV score becomes the weighted sum of member ratings. Missing
	// entries and a nil map mean weight 1. Weights do not affect LM,
	// whose min is scale-free. Weights must be non-negative.
	Weights map[dataset.UserID]float64
	// Workers fans TopK's candidate accumulation out over a worker
	// pool when the group is large enough to amortize it; <= 1 keeps
	// the serial reference path. The member list is cut on a fixed
	// chunk grid (independent of Workers) and chunk partials merge in
	// chunk order, so the output is identical for every worker count
	// >= 2, and identical to the serial path whenever the weighted
	// ratings are exactly representable (true for every dyadic rating
	// scale, including the paper's 1-5 stars and half-star data; only
	// AV sums are order-sensitive at all, and only in the last ulp).
	Workers int
}

// Weight returns u's weight (1 by default).
func (sc Scorer) Weight(u dataset.UserID) float64 {
	if sc.Weights == nil {
		return 1
	}
	if w, ok := sc.Weights[u]; ok {
		return w
	}
	return 1
}

// ItemScore returns sc(g, i) for the given members under sem. The
// item index is resolved once; each member probe is then a single
// index lookup plus a binary search over that member's CSR row.
// Members or items unknown to the dataset contribute Missing.
func (sc Scorer) ItemScore(sem Semantics, members []dataset.UserID, item dataset.ItemID) float64 {
	j, okItem := sc.DS.ItemIdxOf(item)
	memberScore := func(u dataset.UserID) float64 {
		if okItem {
			if r, ok := sc.DS.UserIdxOf(u); ok {
				if v, ok := sc.DS.RatingIdx(r, j); ok {
					return v
				}
			}
		}
		return sc.Missing
	}
	switch sem {
	case LM:
		lo := math.Inf(1)
		for _, u := range members {
			if v := memberScore(u); v < lo {
				lo = v
			}
		}
		if math.IsInf(lo, 1) {
			return sc.Missing
		}
		return lo
	case AV:
		s := 0.0
		for _, u := range members {
			s += sc.Weight(u) * memberScore(u)
		}
		return s
	}
	panic(fmt.Sprintf("semantics: invalid semantics %d", int(sem)))
}

// ItemScoreIdx is the group score of one item in index space: members
// and the item are dense indices into sc.DS, skipping every ID lookup.
// The members' ratings fold into one ItemStats record in
// accumulateIdx's seed/fold order and the record's Score is returned,
// so a refold probe scores an item with the formula topKDense and the
// router's merged stats use. Members who did not rate the item
// contribute Missing, as in ItemScore.
func (sc Scorer) ItemScoreIdx(sem Semantics, members []dataset.UserIdx, item dataset.ItemIdx) float64 {
	var st ItemStats
	totalW := 0.0
	for _, r := range members {
		w := 1.0
		if sem == AV {
			w = sc.Weight(sc.DS.UserAt(r))
			totalW += w
		}
		v, ok := sc.DS.RatingIdx(r, item)
		if !ok {
			continue
		}
		if st.Count == 0 {
			st.Min, st.WSum, st.WRaters = v, w*v, w
		} else {
			if v < st.Min {
				st.Min = v
			}
			st.WSum += w * v
			st.WRaters += w
		}
		st.Count++
	}
	return st.Score(sem, len(members), totalW, sc.Missing)
}

// TopKScratch holds the reusable buffers of a TopKInto call: the
// candidate accumulation list and the output item/score arrays. The
// zero value is ready to use; buffers grow on demand and are retained
// across calls, so a caller that keeps one scratch per goroutine
// reaches a zero-allocation steady state. A scratch must not be used
// from two goroutines at once.
type TopKScratch struct {
	cand   []scoredItem
	items  []dataset.ItemID
	scores []float64
	// da is the scratch's leased dense accumulator: the serial path
	// accumulates here instead of borrowing from the shared
	// sync.Pool, so a caller-owned scratch keeps the steady state
	// allocation-free even across GC cycles (pools may be emptied;
	// leases are not).
	da *denseAcc
	// levels is ComplementTopKInto's excluded-rating table, one count
	// per (item, rating level), all zero between calls.
	levels []int32
}

// ensureDense returns the scratch's leased accumulator with at least m
// slots, creating or growing it on first need.
func (s *TopKScratch) ensureDense(m int) *denseAcc {
	if s.da == nil {
		s.da = new(denseAcc)
	}
	s.da.ensure(m)
	return s.da
}

// candidates returns the empty candidate buffer pre-sized for n
// entries: one exact allocation on a cold scratch (matching the
// historical make) instead of an append-doubling chain, none once
// warm.
func (s *TopKScratch) candidates(n int) []scoredItem {
	if cap(s.cand) < n {
		s.cand = make([]scoredItem, 0, n)
	}
	return s.cand[:0]
}

// finish is the selection tail of topKDense: store the populated
// candidate buffer back, cut it to the best k, and rebuild the output
// arrays from the survivors. The returned slices still need padding
// when fewer than k candidates existed; the caller stores them back
// into the scratch once padded.
func (s *TopKScratch) finish(all []scoredItem, k int) ([]dataset.ItemID, []float64) {
	s.cand = all
	if cap(s.items) < k {
		s.items = make([]dataset.ItemID, 0, k)
		s.scores = make([]float64, 0, k)
	}
	return split(selectScored(all, k), s.items[:0], s.scores[:0])
}

// topkScratchPool backs the allocating TopK wrapper so its candidate
// buffer is still recycled across calls.
var topkScratchPool = sync.Pool{New: func() any { return new(TopKScratch) }}

// TopK computes the group's recommended top-k item list I_g^k under
// sem, together with the group scores of each listed item in
// non-increasing order. Ties are broken by ascending item ID, making
// the list deterministic. Candidate items are the union of the
// members' rated items; if fewer than k candidates exist, the list is
// completed with unrated items (whose group score is the imputed
// value: Missing for LM, |g|*Missing for AV).
//
// TopK is a thin wrapper over TopKInto that copies the results into
// freshly allocated slices the caller owns; hot paths that can keep a
// scratch alive should call TopKInto directly.
func (sc Scorer) TopK(sem Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error) {
	s := topkScratchPool.Get().(*TopKScratch)
	items, scores, err := sc.TopKInto(sem, members, k, s)
	if err != nil {
		topkScratchPool.Put(s)
		return nil, nil, err
	}
	outItems := append(make([]dataset.ItemID, 0, len(items)), items...)
	outScores := append(make([]float64, 0, len(scores)), scores...)
	topkScratchPool.Put(s)
	return outItems, outScores, nil
}

// TopKInto is TopK writing into s's reusable buffers: the returned
// slices alias s and stay valid only until the next call that uses s.
// With a long-lived scratch the serial path performs no allocations
// once the buffers have grown to the workload's high-water mark.
//
//gfvet:zeroalloc
func (sc Scorer) TopKInto(sem Semantics, members []dataset.UserID, k int, s *TopKScratch) ([]dataset.ItemID, []float64, error) {
	if k <= 0 {
		//gfvet:allow hotpathalloc -- cold validation path; boxing only happens when the config is already wrong
		return nil, nil, gferr.BadConfigf("semantics: K must be positive, got %d", k)
	}
	if k > sc.DS.NumItems() {
		//gfvet:allow hotpathalloc -- cold validation path; boxing only happens when the config is already wrong
		return nil, nil, gferr.BadConfigf("semantics: K=%d exceeds item count %d", k, sc.DS.NumItems())
	}
	if len(members) == 0 {
		return nil, nil, gferr.BadConfigf("semantics: group members must be non-empty")
	}
	totalW := 0.0
	for _, u := range members {
		totalW += sc.Weight(u)
	}
	items, scores := sc.topKDense(sem, members, k, totalW, s)
	return items, scores, nil
}

// scoredItem pairs a candidate with its group score for the k-bounded
// top-k selection.
type scoredItem struct {
	item  dataset.ItemID
	score float64
}

// lessScored is the pipeline's candidate order — score descending,
// item ascending — a strict total order, so the selected prefix is the
// same whatever order candidates were enumerated in and whichever
// selection strategy runs (see internal/selection).
func lessScored(a, b scoredItem) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.item < b.item
}

// selectScored keeps the best k candidates of all in sorted order —
// the k-bounded replacement for the historical full sort + truncate,
// byte-identical under lessScored's total order.
func selectScored(all []scoredItem, k int) []scoredItem {
	return all[:selection.TopK(all, k, lessScored)]
}

// split appends the selected candidates to the parallel item and score
// output arrays.
func split(sel []scoredItem, items []dataset.ItemID, scores []float64) ([]dataset.ItemID, []float64) {
	for _, c := range sel {
		items = append(items, c.item)
		scores = append(scores, c.score)
	}
	return items, scores
}

// imputed is the group score of an item no member rated, the padding
// value of a short top-k list: missing under LM, totalW·missing under
// AV.
func imputed(sem Semantics, totalW, missing float64) float64 {
	if sem == AV {
		return missing * totalW
	}
	return missing
}

// topKDense is TopKInto's index-space body: candidates accumulate in
// dense arrays (the scratch's leased accumulator, or pooled chunk
// partials on the parallel path) and selectDense scores and selects
// them — no map from the first rating probe to the returned list.
//
//gfvet:zeroalloc
func (sc Scorer) topKDense(sem Semantics, members []dataset.UserID, k int, totalW float64, s *TopKScratch) ([]dataset.ItemID, []float64) {
	m := sc.DS.NumItems()
	if sc.Workers >= 2 && len(members) > topkChunk {
		da := sc.accumulateIdxParallel(members, m)
		items, scores := sc.selectDense(sem, da, len(members), totalW, k, s)
		da.release()
		return items, scores
	}
	da := s.ensureDense(m)
	sc.accumulateIdx(da, members)
	items, scores := sc.selectDense(sem, da, len(members), totalW, k, s)
	da.clear()
	return items, scores
}

// selectDense is the tail every dense top-k shares: each touched slot
// of da is scored as an ItemStats record (the shards' and the router's
// kernel), the best k are kept, and a short list is padded with the
// untouched items in catalog order at the imputed score. members and
// totalW describe the whole group; the results are stored back into s.
//
//gfvet:zeroalloc
func (sc Scorer) selectDense(sem Semantics, da *denseAcc, members int, totalW float64, k int, s *TopKScratch) ([]dataset.ItemID, []float64) {
	all := s.candidates(len(da.touched))
	for _, j := range da.touched {
		st := da.stats(sc.DS, j)
		all = append(all, scoredItem{st.Item, st.Score(sem, members, totalW, sc.Missing)})
	}
	items, scores := s.finish(all, k)
	if len(items) < k {
		pad := imputed(sem, totalW, sc.Missing)
		ids := sc.DS.Items()
		for j := 0; j < len(ids) && len(items) < k; j++ {
			if da.count[j] == 0 {
				items = append(items, ids[j])
				scores = append(scores, pad)
			}
		}
	}
	s.items, s.scores = items, scores
	return items, scores
}

// Satisfaction computes gs(I_g^k): the group's top-k list under sem is
// formed and its scores aggregated with agg.
func (sc Scorer) Satisfaction(sem Semantics, agg Aggregation, members []dataset.UserID, k int) (float64, error) {
	_, scores, err := sc.TopK(sem, members, k)
	if err != nil {
		return 0, err
	}
	return agg.Aggregate(scores), nil
}

// ndcgScratchPool recycles the rating-row copy NDCG selects the ideal
// ordering from, so repeated evaluation sweeps stop allocating a full
// row per (user, list) pair.
var ndcgScratchPool = sync.Pool{New: func() any { return new([]float64) }}

// greaterFloat orders ratings descending; ratings are scale-validated
// (never NaN), so this is a strict weak order whose sorted key
// sequence is unique — all the ideal DCG needs.
func greaterFloat(a, b float64) bool { return a > b }

// NDCG computes the Normalized Discounted Cumulative Gain of the
// recommended item list for a single user (Section 6, "weights at the
// user level"): graded relevance is the user's own rating (missing =
// Missing), discounted by log2(position+1), normalized by the user's
// ideal ordering over the same list length. The ideal ordering needs
// only the user's best len(items) ratings, so it runs through the
// k-bounded selection kernel on a pooled scratch copy of the rating
// row instead of reverse-sorting the whole row per call.
func (sc Scorer) NDCG(u dataset.UserID, items []dataset.ItemID) float64 {
	if len(items) == 0 {
		return 0
	}
	dcg := 0.0
	for j, it := range items {
		v, ok := sc.DS.Rating(u, it)
		if !ok {
			v = sc.Missing
		}
		dcg += v / math.Log2(float64(j+2))
	}
	// Ideal: user's best len(items) ratings in descending order.
	bufp := ndcgScratchPool.Get().(*[]float64)
	vals := (*bufp)[:0]
	if r, ok := sc.DS.UserIdxOf(u); ok {
		_, row := sc.DS.RowIdx(r)
		vals = append(vals, row...)
	}
	*bufp = vals
	vals = vals[:selection.TopK(vals, len(items), greaterFloat)]
	idcg := 0.0
	for j := 0; j < len(items); j++ {
		v := sc.Missing
		if j < len(vals) {
			v = vals[j]
		}
		idcg += v / math.Log2(float64(j+2))
	}
	ndcgScratchPool.Put(bufp)
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}
