package semantics

import (
	"groupform/internal/dataset"

	"groupform/internal/gferr"
)

// PseudoUserTopK implements the *other* dominant group-recommendation
// strategy the paper's related-work section describes ("creates a
// pseudo-user representing the group and then makes recommendations
// to that pseudo-user"): the group's profile rates each item with the
// weighted mean of the member ratings that exist, and the top-k of
// that profile is recommended. Returned scores are the profile means.
//
// On a complete matrix with equal weights this ranks items exactly
// like AV (the mean is the sum over a constant |g|); on sparse data
// the two diverge — the mean ignores non-raters while the AV sum
// (with Missing 0) penalizes items few members rated. MinRaters
// filters items supported by too few members (1 by default).
//
// The profile accumulates in the same pooled dense index-space arrays
// as Scorer.TopK (wsum/wraters/count; min is unused here).
func (sc Scorer) PseudoUserTopK(members []dataset.UserID, k, minRaters int) ([]dataset.ItemID, []float64, error) {
	if k <= 0 {
		return nil, nil, gferr.BadConfigf("semantics: k must be positive, got %d", k)
	}
	if k > sc.DS.NumItems() {
		return nil, nil, gferr.BadConfigf("semantics: k=%d exceeds item count %d", k, sc.DS.NumItems())
	}
	if len(members) == 0 {
		return nil, nil, gferr.BadConfigf("semantics: empty group")
	}
	if minRaters <= 0 {
		minRaters = 1
	}
	m := sc.DS.NumItems()
	da := acquireDense(m)
	sc.accumulateIdx(da, members)
	all := make([]scoredItem, 0, len(da.touched))
	for _, j := range da.touched {
		if int(da.count[j]) < minRaters || da.wraters[j] == 0 {
			continue
		}
		all = append(all, scoredItem{sc.DS.ItemAt(j), da.wsum[j] / da.wraters[j]})
	}
	items, scores := split(selectScored(all, k), make([]dataset.ItemID, 0, k), make([]float64, 0, k))
	if len(items) < k {
		// Mark the listed items in the count array (negative counts
		// never occur otherwise and are cleared by release via the
		// touched list), then pad with every other item — including
		// rated-but-unlisted ones — at the Missing score, in ascending
		// item order, matching the historical behavior.
		for _, it := range items {
			if j, ok := sc.DS.ItemIdxOf(it); ok {
				da.count[j] = -1
			}
		}
		ids := sc.DS.Items()
		for j := 0; j < m && len(items) < k; j++ {
			if da.count[j] != -1 {
				items = append(items, ids[j])
				scores = append(scores, sc.Missing)
			}
		}
	}
	da.release()
	return items, scores, nil
}
