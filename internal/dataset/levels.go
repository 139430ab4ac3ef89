package dataset

import (
	"math"
	"slices"
)

// This file keeps the per-item rating-level table: how many of each
// item's ratings sit at each distinct rating value. Ratings are
// ordinal levels (the paper's 1-5 stars), so a handful of counts per
// item describe an item's ratings over ANY user set that is "everyone
// minus a few": the minimum is the lowest level whose count stays
// positive, the rater count is the sum of the counts, and the rating
// sum is Σ count·level. The greedy framework's merged l-th group is
// exactly such a set (semantics.Scorer.ComplementTopKInto).
//
// The table is built in newCSR's per-rating loop, so every
// constructor, Compact and ShardUsers carry one, and Upsert patches it
// where it patches itemCount. A catalog with more than maxLevels
// distinct values (continuous predictions, CF-completed matrices), or
// holding both -0 and +0 (equal values with distinct bits, so a
// first-seen minimum is not a function of the counts), has none. The
// counts share itemCount's allocation and the table lives inside the
// Dataset, so neither a build nor an upsert allocates for it.

// maxLevels bounds the distinct rating values a level table tracks.
const maxLevels = 16

// Levels is a dataset's per-item rating-level table. It is shared and
// read-only: Upsert builds a successor's table instead of patching
// this one.
type Levels struct {
	// Counts[int(j)*len(Values())+l] is the number of ratings of item
	// index j equal to Values()[l].
	Counts []int32
	// Exact reports that float sums of ratings are exact in any order
	// and association: every value is a multiple of 2⁻⁸ and
	// NumRatings·max|value|·2⁸ < 2⁵³, so every partial sum (and every
	// count·value product) is an integer multiple of 2⁻⁸ below 2⁵³ of
	// them.
	Exact bool

	ok     bool
	n      int
	values [maxLevels]float64 // ascending
	index  levelHash          // values[l]'s bits -> l
}

// Levels returns the dataset's rating-level table, or nil when the
// catalog has none (see the file comment).
func (ds *Dataset) Levels() *Levels {
	if !ds.lv.ok {
		return nil
	}
	return &ds.lv
}

// Values returns the distinct rating values, ascending. A value may
// have a zero total count after upserts re-rated it away.
func (lv *Levels) Values() []float64 { return lv.values[:lv.n] }

// Index returns the level of rating value v, matched by bit pattern,
// or -1 when v is not a level.
func (lv *Levels) Index(v float64) int {
	return int(lv.index.ids[lv.index.probe(math.Float64bits(v))]) - 1
}

// withValues returns a table over values with no counts, ok only when
// values are strictly ascending (no -0/+0 pair, no NaN).
func withValues(values []float64) Levels {
	lv := Levels{n: len(values)}
	for l, v := range values {
		if v != v || (l > 0 && !(values[l-1] < v)) {
			return Levels{}
		}
		lv.values[l] = v
		lv.index.insert(math.Float64bits(v), l)
	}
	lv.ok = true
	return lv
}

// exactGrid reports whether sums of up to nratings values drawn from
// values are exact (Levels.Exact). The bound multiplies in floating
// point, which rounds monotonically, so it never admits a product at
// or above 2⁵³.
func exactGrid(values []float64, nratings int) bool {
	maxAbs := 0.0
	for _, v := range values {
		if s := v * 256; s != math.Trunc(s) {
			return false
		}
		maxAbs = max(maxAbs, math.Abs(v))
	}
	return float64(nratings)*maxAbs*256 < 1<<53
}

// levelHash maps a rating value's bits to a level id through a small
// open-addressing table keyed by a multiplicative hash. A linear scan
// of the levels mispredicts a branch on nearly every rating, which
// made newCSR 4–5× slower on 400k random 1–5 star ratings; a hit at
// the home slot is branch-predictable.
type levelHash struct {
	slots [levelSlots]uint64 // value bits per occupied slot
	ids   [levelSlots]uint8  // level id + 1 per slot; 0 marks empty
}

// levelSlots sizes a levelHash at four slots per level.
const levelSlots = 4 * maxLevels

// home is x's first slot: the top log2(levelSlots) bits of its hash.
func home(x uint64) uint64 { return (x * 0x9e3779b97f4a7c15) >> 58 }

// probe returns the slot holding x, or the empty slot where x would go.
func (t *levelHash) probe(x uint64) uint64 {
	h := home(x)
	for t.ids[h] != 0 && t.slots[h] != x {
		h = (h + 1) % levelSlots
	}
	return h
}

func (t *levelHash) insert(x uint64, id int) {
	h := t.probe(x)
	t.slots[h], t.ids[h] = x, uint8(id+1)
}

// levelBuilder accumulates a level table inside newCSR's per-rating
// loop. Levels get ids in first-seen order and counts a fixed stride
// of maxLevels, so counting needs no relayout when a value first
// appears; finish sorts the levels and compacts the stride in place.
type levelBuilder struct {
	index  levelHash // value bits -> level id, ids in first-seen order
	n      int
	counts []int32 // counts[int(j)*maxLevels+id]; nil once past maxLevels
}

// newLevelBuilder returns a builder for items items and the itemCount
// array, carved from the same allocation as the builder's counts.
func newLevelBuilder(items int) (levelBuilder, []int32) {
	buf := make([]int32, items*(1+maxLevels))
	return levelBuilder{counts: buf[items:]}, buf[:items:items]
}

// hit counts a rating of item j at value v when v's home slot holds
// it — the common case once every level has been seen — and reports
// whether it did; miss counts the rest. hit is small enough to inline
// into newCSR's loop, and a lookup that also probed would not be.
func (b *levelBuilder) hit(j ItemIdx, v float64) bool {
	x := math.Float64bits(v)
	h := home(x)
	if id := b.index.ids[h]; id != 0 && b.index.slots[h] == x {
		b.counts[int(j)*maxLevels+int(id)-1]++
		return true
	}
	return false
}

// miss probes on from v's home slot, registering v as a new level if
// it is one, and counts the rating.
func (b *levelBuilder) miss(j ItemIdx, v float64) {
	if b.counts == nil {
		return
	}
	x := math.Float64bits(v)
	h := b.index.probe(x)
	if b.index.ids[h] == 0 {
		if b.n == maxLevels {
			// Past maxLevels: no table, and no slot may hit again.
			b.counts, b.index = nil, levelHash{}
			return
		}
		b.index.insert(x, b.n)
		b.n++
	}
	b.counts[int(j)*maxLevels+int(b.index.ids[h])-1]++
}

// finish returns the table over nratings ratings; its ok is false
// when the catalog has none.
func (b *levelBuilder) finish(nratings int) Levels {
	if b.counts == nil {
		return Levels{}
	}
	var byID [maxLevels]float64
	for h, id := range b.index.ids {
		if id != 0 {
			byID[id-1] = math.Float64frombits(b.index.slots[h])
		}
	}
	// Insertion-sort the ids by value: there are at most maxLevels.
	var ids [maxLevels]int
	for id := range b.n {
		l := id
		for ; l > 0 && byID[ids[l-1]] > byID[id]; l-- {
			ids[l] = ids[l-1]
		}
		ids[l] = id
	}
	var values [maxLevels]float64
	for l, id := range ids[:b.n] {
		values[l] = byID[id]
	}
	lv := withValues(values[:b.n])
	if !lv.ok {
		return Levels{}
	}
	// Compact row j from stride maxLevels to stride n. Row j's target
	// starts at or before its source, and every earlier source row is
	// already consumed, so a copy of the row is all it takes.
	items := len(b.counts) / maxLevels
	for j := range items {
		var row [maxLevels]int32
		copy(row[:], b.counts[j*maxLevels:])
		for l, id := range ids[:b.n] {
			b.counts[j*b.n+l] = row[id]
		}
	}
	lv.Counts = b.counts[: items*b.n : items*b.n]
	lv.Exact = exactGrid(lv.Values(), nratings)
	return lv
}

// widened returns lv's levels plus every value of rs not yet a level,
// in ascending position, with no counts; its ok is false when lv has
// no table or the new values push it past maxLevels or make it
// non-strict.
func (lv *Levels) widened(rs []Rating) Levels {
	if !lv.ok {
		return Levels{}
	}
	values, n := lv.values, lv.n
	for _, r := range rs {
		x := math.Float64bits(r.Value)
		if slices.ContainsFunc(values[:n], func(v float64) bool { return math.Float64bits(v) == x }) {
			continue
		}
		if n == maxLevels {
			return Levels{}
		}
		// A -0 beside +0 lands next to it and fails withValues.
		at, _ := slices.BinarySearch(values[:n], r.Value)
		copy(values[at+1:n+1], values[at:n])
		values[at] = r.Value
		n++
	}
	return withValues(values[:n])
}

// copyCounts fills out.Counts, which must hold items·len(out.Values())
// zeroed entries, with lv's counts remapped to out's levels, a
// superset of lv's; items past lv's stay zero.
func (lv *Levels) copyCounts(out *Levels) {
	ol, nl := lv.n, out.n
	if ol == nl {
		copy(out.Counts, lv.Counts)
		return
	}
	for l, v := range lv.Values() {
		to := out.Index(v)
		for j := range len(lv.Counts) / ol {
			out.Counts[j*nl+to] = lv.Counts[j*ol+l]
		}
	}
}

// add moves item j's count at value v by delta; v must be a level.
func (lv *Levels) add(j ItemIdx, v float64, delta int32) {
	lv.Counts[int(j)*lv.n+lv.Index(v)] += delta
}
