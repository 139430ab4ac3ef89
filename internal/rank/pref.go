// Package rank implements ranking utilities on top of the rating
// store: per-user preference lists (the L_u lists of Algorithm 1) and
// tie-aware Kendall-Tau rank distance (used by the paper's clustering
// baseline).
package rank

import (
	"context"
	"fmt"
	"strings"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/par"
	"groupform/internal/selection"
)

// PrefList is a user's items ordered by non-increasing rating; ties
// are broken by ascending item ID so every list is deterministic. The
// paper writes L_u = <i3,5; i2,3; i1,2> for user u2 of Example 1.
type PrefList struct {
	User  dataset.UserID
	Items []dataset.ItemID
	// Scores[j] is the user's rating of Items[j].
	Scores []float64
}

// Len returns the number of ranked items.
func (p PrefList) Len() int { return len(p.Items) }

// String renders the list in the paper's notation.
func (p PrefList) String() string {
	var b strings.Builder
	b.Grow(16 + 12*len(p.Items))
	fmt.Fprintf(&b, "L_u%d = <", p.User)
	for j := range p.Items {
		if j > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "i%d,%g", p.Items[j], p.Scores[j])
	}
	b.WriteByte('>')
	return b.String()
}

// TopK returns user u's top-k preference list. If the user has rated
// fewer than k items, the list is padded with the user's unrated items
// in ascending item-ID order at the padValue score, so that every list
// has exactly min(k, NumItems) entries; the paper assumes a complete
// (or completed-by-prediction) matrix, and padding makes the greedy
// algorithms well defined on sparse data too.
func TopK(ds *dataset.Dataset, u dataset.UserID, k int, padValue float64) (PrefList, error) {
	if k <= 0 {
		return PrefList{}, gferr.BadConfigf("rank: K must be positive, got %d", k)
	}
	if k > ds.NumItems() {
		return PrefList{}, gferr.BadConfigf("rank: K=%d exceeds item count %d", k, ds.NumItems())
	}
	var cols []dataset.ItemIdx
	var vals []float64
	if r, ok := ds.UserIdxOf(u); ok {
		cols, vals = ds.RowIdx(r)
	}
	return topKInto(ds, u, cols, vals, k, padValue,
		make([]dataset.ItemID, 0, k), make([]float64, 0, k), new([]int32)), nil
}

// topKInto computes u's top-k list from its RowIdx row into the
// provided capacity-k backing slices, ranking row positions in
// *scratch (grown as needed, never shrunk). Bounds (k >= 1, k <=
// NumItems) are the caller's responsibility. This is the
// allocation-free core shared by TopK and the bulk AllTopK path: with
// arena-backed outputs and a per-shard scratch, building n lists
// costs O(1) allocations instead of O(n).
func topKInto(ds *dataset.Dataset, u dataset.UserID, cols []dataset.ItemIdx, vals []float64, k int, padValue float64,
	items []dataset.ItemID, scores []float64, scratch *[]int32) PrefList {

	// ahead ranks row position a strictly ahead of b: the higher
	// rating, then the lower position, which within a row is the lower
	// item. A strict total order, so both selections below give the
	// bytes of a full sort + truncate.
	ahead := func(a, b int32) bool {
		if vals[a] != vals[b] {
			return vals[a] > vals[b]
		}
		return a < b
	}
	if cap(*scratch) < len(cols) {
		*scratch = make([]int32, len(cols))
	}
	var ranked []int32
	if k < len(cols)/2 {
		// Partial selection: maintain the best k in a small insertion
		// buffer, O(d*k) — the common case (k of 5 against dozens of
		// ratings) and allocation-free, which matters because this
		// runs once per user.
		ranked = (*scratch)[:0]
		for p := range cols {
			c := int32(p)
			pos := len(ranked)
			for pos > 0 && ahead(c, ranked[pos-1]) {
				pos--
			}
			if pos == len(ranked) {
				if len(ranked) < k {
					ranked = append(ranked, c)
				}
				continue
			}
			if len(ranked) < k {
				ranked = append(ranked, 0)
			}
			copy(ranked[pos+1:], ranked[pos:])
			ranked[pos] = c
		}
	} else {
		// Large-k branch: the k-bounded selection kernel over the
		// row's positions (CSR rows are shared and must not be
		// reordered).
		ranked = (*scratch)[:len(cols)]
		for p := range ranked {
			ranked[p] = int32(p)
		}
		ranked = ranked[:selection.TopK(ranked, k, ahead)]
	}
	ids := ds.Items()
	for _, p := range ranked {
		items = append(items, ids[cols[p]])
		scores = append(scores, vals[p])
	}
	if len(items) < k {
		// Pad with unrated items (ascending index, so ascending ID) at
		// padValue, walking the item indices and the sorted row in
		// lockstep — no membership map needed. k <= NumItems, so the
		// unrated items run out no sooner than the list fills.
		q := 0
		for j := 0; len(items) < k; j++ {
			if q < len(cols) && int(cols[q]) == j {
				q++
				continue
			}
			items = append(items, ids[j])
			scores = append(scores, padValue)
		}
	}
	return PrefList{User: u, Items: items, Scores: scores}
}

// AllTopK computes top-k preference lists for every user in the
// dataset, in the dataset's (sorted) user order. This is the O(nk)
// preprocessing step of the greedy algorithms.
func AllTopK(ds *dataset.Dataset, k int, padValue float64) ([]PrefList, error) {
	return AllTopKParallel(context.Background(), ds, k, padValue, 1)
}

// AllTopKParallel is AllTopK with the per-user list construction
// fanned out over a worker pool (workers <= 1 runs serially). Each
// user's list is computed independently and stored at the user's
// index, so the output is identical for every worker count. Rows are
// read straight from the dataset's CSR storage by index — no map
// access — and every list's Items/Scores are carved from two shared
// flat arenas (one bounded-capacity sub-slice per user), so the whole
// O(nk) preprocessing costs a constant number of allocations. The
// context is checked every few thousand users per shard; a canceled
// context returns an error wrapping gferr.ErrCanceled.
func AllTopKParallel(ctx context.Context, ds *dataset.Dataset, k int, padValue float64, workers int) ([]PrefList, error) {
	if k <= 0 {
		return nil, gferr.BadConfigf("rank: K must be positive, got %d", k)
	}
	if k > ds.NumItems() {
		return nil, gferr.BadConfigf("rank: K=%d exceeds item count %d", k, ds.NumItems())
	}
	if err := gferr.Ctx(ctx); err != nil {
		return nil, err
	}
	n := ds.NumUsers()
	out := make([]PrefList, n)
	// Arena backing for all n lists. Every list holds exactly k
	// entries (k <= NumItems is enforced above, and topKInto pads to
	// k), so user i owns the [i*k, (i+1)*k) window; the three-index
	// sub-slices below make the capacity bound explicit so a
	// downstream append can never bleed into a neighbor's window.
	itemsArena := make([]dataset.ItemID, n*k)
	scoresArena := make([]float64, n*k)
	users := ds.Users()
	ranges := par.Ranges(n, workers)
	errs := make([]error, len(ranges))
	par.Do(len(ranges), workers, func(s int) {
		var scratch []int32
		for i := ranges[s][0]; i < ranges[s][1]; i++ {
			if i&0x3FF == 0 {
				if err := gferr.Ctx(ctx); err != nil {
					errs[s] = err
					return
				}
			}
			lo, hi := i*k, (i+1)*k
			cols, vals := ds.RowIdx(dataset.UserIdx(i))
			out[i] = topKInto(ds, users[i], cols, vals, k, padValue,
				itemsArena[lo:lo:hi], scoresArena[lo:lo:hi], &scratch)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FullRanking returns the user's scores over every item in the
// dataset's item order, with missing ratings mapped to missingValue.
// The paper's baseline computes Kendall-Tau over the ranking of *all*
// items ("it is not sufficient to consider only top-k items"). Since
// the dataset's item order IS the dense item-index order, this is a
// fill plus a direct CSR-row scatter.
func FullRanking(ds *dataset.Dataset, u dataset.UserID, missingValue float64) []float64 {
	out := make([]float64, ds.NumItems())
	if missingValue != 0 {
		for idx := range out {
			out[idx] = missingValue
		}
	}
	r, ok := ds.UserIdxOf(u)
	if !ok {
		return out
	}
	cols, vals := ds.RowIdx(r)
	for p, j := range cols {
		out[j] = vals[p]
	}
	return out
}
