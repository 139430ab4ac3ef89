package cf

import (
	"groupform/internal/dataset"

	"groupform/internal/gferr"
)

// SlopeOne is the weighted Slope One predictor (Lemire & Maclachlan):
// for every item pair it learns the average rating difference over
// co-rating users, then predicts r(u, i) as the frequency-weighted
// average of r(u, j) + dev(i, j) over the items j the user rated.
// Cheap to train, surprisingly strong, and a useful third opinion
// next to the kNN and MF models.
type SlopeOne struct {
	ds  *dataset.Dataset
	m   means
	dev map[[2]dataset.ItemID]float64 // average (i - j) difference
	cnt map[[2]dataset.ItemID]int
}

// NewSlopeOne trains a Slope One model. Training is O(sum of squared
// user rating counts), so it suits the per-user activity levels of
// the paper's trimmed datasets.
func NewSlopeOne(ds *dataset.Dataset) (*SlopeOne, error) {
	if ds == nil || ds.NumRatings() == 0 {
		return nil, gferr.BadConfigf("cf: empty dataset")
	}
	m := &SlopeOne{
		ds:  ds,
		m:   computeMeans(ds),
		dev: make(map[[2]dataset.ItemID]float64),
		cnt: make(map[[2]dataset.ItemID]int),
	}
	for _, u := range ds.Users() {
		es := ds.UserRatings(u)
		for a := 0; a < len(es); a++ {
			for b := a + 1; b < len(es); b++ {
				key := [2]dataset.ItemID{es[a].Item, es[b].Item}
				m.dev[key] += es[a].Value - es[b].Value
				m.cnt[key]++
			}
		}
	}
	for key, c := range m.cnt {
		m.dev[key] /= float64(c)
	}
	return m, nil
}

// Predict implements Predictor.
func (m *SlopeOne) Predict(u dataset.UserID, i dataset.ItemID) float64 {
	if v, ok := m.ds.Rating(u, i); ok {
		return v
	}
	r, ok := m.ds.UserIdxOf(u)
	if !ok {
		return m.m.fallback(u, i)
	}
	var num, den float64
	cols, vals := m.ds.RowIdx(r)
	for p, j := range cols {
		it := m.ds.ItemAt(j)
		if it == i {
			continue
		}
		var d float64
		var c int
		if it > i {
			// dev stored for (smaller, larger); flip sign as needed.
			d, c = m.lookup(i, it)
		} else {
			d, c = m.lookup(it, i)
			d = -d
		}
		if c == 0 {
			continue
		}
		num += (vals[p] + d) * float64(c)
		den += float64(c)
	}
	if den == 0 {
		return m.m.fallback(u, i)
	}
	return num / den
}

func (m *SlopeOne) lookup(a, b dataset.ItemID) (float64, int) {
	key := [2]dataset.ItemID{a, b}
	return m.dev[key], m.cnt[key]
}
