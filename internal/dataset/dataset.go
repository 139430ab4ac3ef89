// Package dataset implements the rating-data substrate of the
// reproduction: an immutable, sparse user-item rating store with
// explicit feedback on a bounded scale, plus loaders for the
// MovieLens rating format and plain CSV.
//
// The paper assumes a recommender system with explicit ratings
// sc(u, i) on a discrete scale (1-5 for both Yahoo! Music and
// MovieLens); predicted ratings may be real-valued, so values are
// stored as float64. Missing ratings are represented by absence, and
// consumers choose an explicit policy for them (see
// internal/semantics.Scorer).
//
// # Storage layout
//
// A Dataset is a CSR (compressed sparse row) matrix over a dense
// index space. Arbitrary application-assigned UserID/ItemID values
// are remapped at construction time to contiguous UserIdx (0..n-1)
// and ItemIdx (0..m-1), assigned in ascending ID order, so index
// order and ID order always agree. Each rating is stored once, in
// flat arrays:
//
//	rowPtr []int32   // n+1 offsets; user r's ratings are [rowPtr[r], rowPtr[r+1])
//	colIdx []ItemIdx // item index per rating, ascending within a row
//	vals   []float64 // rating value per rating
//
// plus the two ID<->index tables (users/items slices for idx->ID,
// maps for ID->idx). Hot paths — preference-list construction, group
// scoring, clustering — walk the flat arrays with zero map accesses
// and zero per-row allocation; the long-standing ID-space accessors
// (Rating, UserRatings, ItemCount, ...) remain as thin adapters over
// one ID->index lookup, and UserRatings copies the row out as ID-space
// entries the caller owns. The index space is exported for the
// sibling internal packages but is deliberately absent from the
// public facade: indices are an artifact of one Dataset value and
// mean nothing across datasets.
package dataset

import (
	"fmt"
	"slices"
	"sort"

	"groupform/internal/gferr"
)

// UserID identifies a user. IDs are application-assigned and need not
// be contiguous.
type UserID int32

// ItemID identifies an item.
type ItemID int32

// UserIdx is a dense user index in 0..NumUsers()-1, assigned in
// ascending UserID order (so Users()[r] is the ID of index r). Indices
// are private to one Dataset value: a derived dataset (SubsetUsers,
// Trim) renumbers.
type UserIdx int32

// ItemIdx is a dense item index in 0..NumItems()-1, assigned in
// ascending ItemID order (so Items()[j] is the ID of index j).
type ItemIdx int32

// Scale bounds the rating values, rmin and rmax in the paper.
type Scale struct {
	Min float64
	Max float64
}

// DefaultScale is the 1-5 star scale used by both of the paper's
// datasets.
var DefaultScale = Scale{Min: 1, Max: 5}

// Valid reports whether v lies within the scale.
func (s Scale) Valid(v float64) bool { return v >= s.Min && v <= s.Max }

// Clamp forces v into the scale.
func (s Scale) Clamp(v float64) float64 {
	if v < s.Min {
		return s.Min
	}
	if v > s.Max {
		return s.Max
	}
	return v
}

// Entry is one (item, value) rating owned by some user.
type Entry struct {
	Item  ItemID
	Value float64
}

// Rating is a fully-qualified rating triple.
type Rating struct {
	User  UserID
	Item  ItemID
	Value float64
}

// Dataset is an immutable sparse rating matrix in CSR form (see the
// package comment for the layout). Construct one with a Builder or
// one of the From* constructors. Per-user entries are kept sorted by
// item ID — equivalently by item index — so lookups are O(log d)
// where d is the user's rating count, and iteration order is
// deterministic.
type Dataset struct {
	scale Scale

	users []UserID // idx -> ID, ascending
	items []ItemID // idx -> ID, ascending

	userIdx map[UserID]UserIdx
	itemIdx map[ItemID]ItemIdx

	rowPtr []int32   // len(users)+1
	colIdx []ItemIdx // len = NumRatings, ascending within each row
	vals   []float64 // len = NumRatings

	itemCount []int32 // ratings per item index
	lv        Levels  // ratings per item index and rating level; see levels.go

	// dups counts duplicate (user, item) additions collapsed under
	// the documented last-write-wins policy — at build time and by
	// rating upserts; see Builder.Add, Upsert and Stats.Duplicates.
	dups int

	// ov, when non-nil, is the delta overlay of a mutated dataset:
	// the frozen arrays above then describe only the compact
	// ancestor's rows, and accessors consult the overlay first. See
	// overlay.go.
	ov *overlay
}

// newCSR freezes validated CSR arrays into a Dataset, building the
// ID->index tables and the per-item rating and rating-level counts,
// the counts in one pass over the ratings. It adopts the slices
// without copying; callers hand over ownership.
// Requirements: users and items strictly ascending;
// rowPtr non-decreasing with rowPtr[0] == 0 and len(users)+1 entries;
// colIdx strictly ascending within each row and < len(items); vals
// within scale.
func newCSR(scale Scale, users []UserID, items []ItemID, rowPtr []int32, colIdx []ItemIdx, vals []float64, dups int) *Dataset {
	ds := &Dataset{
		scale:   scale,
		users:   users,
		items:   items,
		userIdx: make(map[UserID]UserIdx, len(users)),
		itemIdx: make(map[ItemID]ItemIdx, len(items)),
		rowPtr:  rowPtr,
		colIdx:  colIdx,
		vals:    vals,
		dups:    dups,
	}
	for r, u := range users {
		ds.userIdx[u] = UserIdx(r)
	}
	for j, it := range items {
		ds.itemIdx[it] = ItemIdx(j)
	}
	var lb levelBuilder
	lb, ds.itemCount = newLevelBuilder(len(items))
	for p, j := range colIdx {
		ds.itemCount[j]++
		if !lb.hit(j, vals[p]) {
			lb.miss(j, vals[p])
		}
	}
	if ds.lv = lb.finish(len(colIdx)); !ds.lv.ok {
		// No table: release the unused counts beside itemCount.
		ds.itemCount = slices.Clone(ds.itemCount)
	}
	return ds
}

// buildFromRows assembles a Dataset from per-user entry rows aligned
// with the (ascending) users slice. Rows must already be sorted by
// item ID, deduplicated and scale-validated; buildFromRows only
// remaps to index space. Empty rows are legal and keep their user.
func buildFromRows(scale Scale, users []UserID, rows [][]Entry, dups int) *Dataset {
	total := 0
	itemSet := make(map[ItemID]struct{})
	for _, row := range rows {
		total += len(row)
		for _, e := range row {
			itemSet[e.Item] = struct{}{}
		}
	}
	items := make([]ItemID, 0, len(itemSet))
	for it := range itemSet {
		items = append(items, it)
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	idxOf := make(map[ItemID]ItemIdx, len(items))
	for j, it := range items {
		idxOf[it] = ItemIdx(j)
	}

	rowPtr := make([]int32, len(users)+1)
	colIdx := make([]ItemIdx, total)
	vals := make([]float64, total)
	p := int32(0)
	for r, row := range rows {
		rowPtr[r] = p
		for _, e := range row {
			colIdx[p] = idxOf[e.Item]
			vals[p] = e.Value
			p++
		}
	}
	rowPtr[len(users)] = p
	return newCSR(scale, users, items, rowPtr, colIdx, vals, dups)
}

// Builder accumulates ratings and produces a Dataset. Internally it
// is an append-log per user: Add never collapses anything, and Build
// runs the log through dedupLastWins — the one last-write-wins code
// path shared with FromUserEntries and the live Upsert overlay merge,
// so Stats.Duplicates counts identically however ratings arrive.
type Builder struct {
	scale Scale
	rows  map[UserID][]Entry
}

// NewBuilder returns a Builder enforcing the given scale.
func NewBuilder(scale Scale) *Builder {
	return &Builder{scale: scale, rows: make(map[UserID][]Entry)}
}

// Add records a rating. Values outside the scale are rejected.
//
// Duplicate policy: adding the same (user, item) twice is legal and
// the LAST write wins — explicit-feedback systems treat a re-rating
// as a correction, and every loader in this package feeds ratings in
// input order, so the file's final word stands. Collapsed duplicates
// are counted at Build time and surfaced by Stats.Duplicates so that
// data-quality problems (a ratings dump with conflicting rows) stay
// observable.
func (b *Builder) Add(u UserID, i ItemID, v float64) error {
	if !b.scale.Valid(v) {
		return gferr.BadConfigf("dataset: rating %v for user %d item %d outside scale [%v,%v]",
			v, u, i, b.scale.Min, b.scale.Max)
	}
	b.rows[u] = append(b.rows[u], Entry{Item: i, Value: v})
	return nil
}

// MustAdd is Add but panics on error; for tests and generators that
// construct ratings known to be in range.
func (b *Builder) MustAdd(u UserID, i ItemID, v float64) {
	if err := b.Add(u, i, v); err != nil {
		panic(err)
	}
}

// Build freezes the accumulated ratings into a Dataset. The Builder
// may be reused afterwards; Build copies everything.
func (b *Builder) Build() *Dataset {
	users := make([]UserID, 0, len(b.rows))
	for u := range b.rows {
		users = append(users, u)
	}
	sort.Slice(users, func(a, c int) bool { return users[a] < users[c] })
	rows := make([][]Entry, len(users))
	dups := 0
	for r, u := range users {
		log := b.rows[u]
		row := make([]Entry, len(log))
		copy(row, log)
		sort.Stable(byItem(row))
		var d int
		rows[r], d = dedupLastWins(row)
		dups += d
	}
	return buildFromRows(b.scale, users, rows, dups)
}

// dedupLastWins collapses duplicate items in an entry slice that has
// been STABLY sorted by item, keeping the last occurrence of each
// item — under a stable sort that is the latest write in input
// order. It rewrites es in place and returns the collapsed slice
// plus the number of entries removed. This is the single
// last-write-wins code path behind Builder.Build, FromUserEntries
// and the Upsert overlay merge, which keeps Stats.Duplicates
// consistent across every ingestion route.
func dedupLastWins(es []Entry) ([]Entry, int) {
	out := es[:0]
	dups := 0
	for i := 0; i < len(es); i++ {
		if i+1 < len(es) && es[i+1].Item == es[i].Item {
			dups++
			continue
		}
		out = append(out, es[i])
	}
	return out, dups
}

// FromRatings builds a Dataset directly from a slice of triples,
// under the Builder's documented last-write-wins duplicate policy;
// the collapsed-duplicate count is surfaced by Describe().Duplicates.
func FromRatings(scale Scale, rs []Rating) (*Dataset, error) {
	b := NewBuilder(scale)
	for _, r := range rs {
		if err := b.Add(r.User, r.Item, r.Value); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// FromDense builds a complete (dense) Dataset from a matrix indexed as
// rows[u][i], with user IDs 0..len(rows)-1 and item IDs 0..m-1. Every
// row must have the same length. This mirrors the paper's worked
// examples, which are small dense tables. The CSR arrays are filled
// directly — a dense table needs no sorting or deduplication.
func FromDense(scale Scale, rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, gferr.BadConfigf("dataset: no rows")
	}
	m := len(rows[0])
	n := len(rows)
	users := make([]UserID, n)
	items := make([]ItemID, m)
	for j := range items {
		items[j] = ItemID(j)
	}
	rowPtr := make([]int32, n+1)
	colIdx := make([]ItemIdx, n*m)
	vals := make([]float64, n*m)
	p := 0
	for u, row := range rows {
		if len(row) != m {
			return nil, gferr.BadConfigf("dataset: row %d has %d items, want %d", u, len(row), m)
		}
		users[u] = UserID(u)
		rowPtr[u] = int32(p)
		for i, v := range row {
			if !scale.Valid(v) {
				return nil, gferr.BadConfigf("dataset: rating %v for user %d item %d outside scale [%v,%v]",
					v, u, i, scale.Min, scale.Max)
			}
			colIdx[p] = ItemIdx(i)
			vals[p] = v
			p++
		}
	}
	rowPtr[n] = int32(p)
	return newCSR(scale, users, items, rowPtr, colIdx, vals, 0), nil
}

// byItem sorts entries by item ID with a concrete sort.Interface (the
// bulk constructor sorts millions of entries; reflection-based
// sort.Slice swaps would dominate).
type byItem []Entry

func (s byItem) Len() int           { return len(s) }
func (s byItem) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s byItem) Less(i, j int) bool { return s[i].Item < s[j].Item }

// FromUserEntries builds a Dataset from per-user entry slices without
// the Builder's per-user maps, which matters when generating the
// paper's scalability workloads (hundreds of thousands of users).
// Entries are validated against the scale, sorted by item, and
// deduplicated under the same last-write-wins policy as Builder.Add
// (the last occurrence wins); collapsed duplicates are counted into
// Stats.Duplicates. The input slices are not retained.
func FromUserEntries(scale Scale, perUser map[UserID][]Entry) (*Dataset, error) {
	users := make([]UserID, 0, len(perUser))
	for u := range perUser {
		users = append(users, u)
	}
	sort.Slice(users, func(a, c int) bool { return users[a] < users[c] })
	rows := make([][]Entry, len(users))
	dups := 0
	for r, u := range users {
		entries := perUser[u]
		es := make([]Entry, len(entries))
		copy(es, entries)
		for _, e := range es {
			if !scale.Valid(e.Value) {
				return nil, gferr.BadConfigf("dataset: rating %v for user %d item %d outside scale [%v,%v]",
					e.Value, u, e.Item, scale.Min, scale.Max)
			}
		}
		sort.Stable(byItem(es))
		var d int
		rows[r], d = dedupLastWins(es)
		dups += d
	}
	return buildFromRows(scale, users, rows, dups), nil
}

// Scale returns the rating scale.
func (ds *Dataset) Scale() Scale { return ds.scale }

// NumUsers returns the number of distinct users.
func (ds *Dataset) NumUsers() int { return len(ds.users) }

// NumItems returns the number of distinct items (items with >= 1
// rating, plus any registered through a dense build).
func (ds *Dataset) NumItems() int { return len(ds.items) }

// NumRatings returns the total number of stored ratings.
func (ds *Dataset) NumRatings() int {
	if ds.ov != nil {
		return ds.ov.nratings
	}
	return len(ds.vals)
}

// Users returns the sorted user IDs; Users()[r] is the ID at UserIdx
// r. The returned slice is shared; do not modify it.
func (ds *Dataset) Users() []UserID { return ds.users }

// Items returns the sorted item IDs; Items()[j] is the ID at ItemIdx
// j. The returned slice is shared; do not modify it.
func (ds *Dataset) Items() []ItemID { return ds.items }

// UserIdxOf resolves a user ID to its dense index.
func (ds *Dataset) UserIdxOf(u UserID) (UserIdx, bool) {
	r, ok := ds.userIdx[u]
	if !ok && ds.ov != nil && ds.ov.extraUsers != nil {
		r, ok = ds.ov.extraUsers[u]
	}
	return r, ok
}

// ItemIdxOf resolves an item ID to its dense index.
func (ds *Dataset) ItemIdxOf(i ItemID) (ItemIdx, bool) {
	j, ok := ds.itemIdx[i]
	if !ok && ds.ov != nil && ds.ov.extraItems != nil {
		j, ok = ds.ov.extraItems[i]
	}
	return j, ok
}

// UserAt returns the user ID at a dense index.
func (ds *Dataset) UserAt(r UserIdx) UserID { return ds.users[r] }

// ItemAt returns the item ID at a dense index.
func (ds *Dataset) ItemAt(j ItemIdx) ItemID { return ds.items[j] }

// RowIdx returns user r's CSR row: the parallel (item index, value)
// slices, item indices ascending. The slices are shared; do not
// modify them. This is the map-free hot-path accessor: callers index
// dense per-item accumulators directly with the returned indices.
func (ds *Dataset) RowIdx(r UserIdx) ([]ItemIdx, []float64) {
	if ds.ov != nil {
		return ds.overlayRowIdx(r)
	}
	lo, hi := ds.rowPtr[r], ds.rowPtr[r+1]
	return ds.colIdx[lo:hi], ds.vals[lo:hi]
}

// RatingIdx returns the rating at (user index, item index) and
// whether it exists, by binary search over the user's row.
func (ds *Dataset) RatingIdx(r UserIdx, j ItemIdx) (float64, bool) {
	cols, vals := ds.RowIdx(r)
	p := sort.Search(len(cols), func(q int) bool { return cols[q] >= j })
	if p < len(cols) && cols[p] == j {
		return vals[p], true
	}
	return 0, false
}

// ItemCountIdx returns how many users rated the item at index j.
func (ds *Dataset) ItemCountIdx(j ItemIdx) int { return int(ds.itemCount[j]) }

// Rating returns the rating of item i by user u, and whether it
// exists.
func (ds *Dataset) Rating(u UserID, i ItemID) (float64, bool) {
	r, ok := ds.UserIdxOf(u)
	if !ok {
		return 0, false
	}
	j, ok := ds.ItemIdxOf(i)
	if !ok {
		return 0, false
	}
	return ds.RatingIdx(r, j)
}

// UserRatings returns user u's ratings sorted by item ID, in a fresh
// slice the caller owns. Unknown users yield nil. Loops that read
// rows repeatedly should use RowIdx, which copies nothing.
func (ds *Dataset) UserRatings(u UserID) []Entry {
	r, ok := ds.UserIdxOf(u)
	if !ok {
		return nil
	}
	cols, vals := ds.RowIdx(r)
	es := make([]Entry, len(cols))
	for p, j := range cols {
		es[p] = Entry{Item: ds.items[j], Value: vals[p]}
	}
	return es
}

// ItemCount returns how many users rated item i.
func (ds *Dataset) ItemCount(i ItemID) int {
	j, ok := ds.ItemIdxOf(i)
	if !ok {
		return 0
	}
	return int(ds.itemCount[j])
}

// filterCSR builds a new Dataset from the (ascending) selected rows,
// keeping only ratings whose item passes keepItem (nil keeps all).
// Items left with no ratings disappear and the remaining items are
// renumbered; selected rows that end up empty are dropped with their
// user, matching the historical Builder-based rebuild (a user exists
// only through ratings). This is the index-space rebuild behind
// SubsetUsers and Trim: two passes over flat arrays, no maps beyond
// the new Dataset's own tables.
func (ds *Dataset) filterCSR(rows []UserIdx, keepItem []bool) *Dataset {
	// Pass 1: per-item counts and total size over the selection.
	cnt := make([]int32, len(ds.items))
	total := 0
	for _, r := range rows {
		for _, j := range ds.colIdx[ds.rowPtr[r]:ds.rowPtr[r+1]] {
			if keepItem == nil || keepItem[j] {
				cnt[j]++
				total++
			}
		}
	}
	// Renumber surviving items.
	oldToNew := make([]ItemIdx, len(ds.items))
	items := make([]ItemID, 0, len(ds.items))
	for j, c := range cnt {
		if c > 0 {
			oldToNew[j] = ItemIdx(len(items))
			items = append(items, ds.items[j])
		} else {
			oldToNew[j] = -1
		}
	}
	// Pass 2: fill the new CSR arrays.
	users := make([]UserID, 0, len(rows))
	rowPtr := make([]int32, 1, len(rows)+1)
	colIdx := make([]ItemIdx, 0, total)
	vals := make([]float64, 0, total)
	for _, r := range rows {
		lo, hi := ds.rowPtr[r], ds.rowPtr[r+1]
		before := len(colIdx)
		for p := lo; p < hi; p++ {
			j := ds.colIdx[p]
			if keepItem == nil || keepItem[j] {
				colIdx = append(colIdx, oldToNew[j])
				vals = append(vals, ds.vals[p])
			}
		}
		if len(colIdx) == before {
			continue // row emptied: the user disappears with it
		}
		users = append(users, ds.users[r])
		rowPtr = append(rowPtr, int32(len(colIdx)))
	}
	return newCSR(ds.scale, users, items, rowPtr, colIdx, vals, 0)
}

// SubsetUsers returns a new Dataset restricted to the given users.
// Items with no remaining ratings disappear. Duplicate or unknown user
// IDs are ignored; an empty (or fully unknown) selection yields an
// empty dataset.
func (ds *Dataset) SubsetUsers(users []UserID) *Dataset {
	ds = ds.Compact() // filterCSR walks the frozen arrays directly
	rows := make([]UserIdx, 0, len(users))
	seen := make([]bool, len(ds.users))
	for _, u := range users {
		if r, ok := ds.userIdx[u]; ok && !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
	return ds.filterCSR(rows, nil)
}

// Trim repeatedly removes users with fewer than minUserRatings ratings
// and items with fewer than minItemRatings ratings until the dataset
// is stable. This is the paper's pre-processing ("each user has rated
// at least 20 songs, and each song has been rated by at least 20
// users"), which must iterate because removing an item can push a user
// under the threshold and vice versa. Trimming everything away is a
// legal fixpoint: the result is then the empty dataset.
func (ds *Dataset) Trim(minUserRatings, minItemRatings int) *Dataset {
	cur := ds.Compact() // the loop below walks the frozen arrays directly
	for {
		badUser := false
		keep := make([]UserIdx, 0, cur.NumUsers())
		for r := 0; r < cur.NumUsers(); r++ {
			if int(cur.rowPtr[r+1]-cur.rowPtr[r]) >= minUserRatings {
				keep = append(keep, UserIdx(r))
			} else {
				badUser = true
			}
		}
		if badUser {
			cur = cur.filterCSR(keep, nil)
			continue
		}
		keepItem := make([]bool, cur.NumItems())
		anyBad := false
		for j, c := range cur.itemCount {
			keepItem[j] = int(c) >= minItemRatings
			if !keepItem[j] {
				anyBad = true
			}
		}
		if !anyBad {
			return cur
		}
		cur = cur.filterCSR(keep, keepItem)
	}
}

// Stats summarizes a dataset; Table 3 of the paper reports exactly
// these figures for Yahoo! Music and MovieLens.
type Stats struct {
	Users    int
	Items    int
	Ratings  int
	Density  float64 // ratings / (users*items)
	MeanRate float64 // average rating value
	// Duplicates counts (user, item) pairs that were rated more than
	// once — in the construction input or by later rating upserts —
	// and collapsed under the last-write-wins policy (see
	// Builder.Add and Upsert; both count through dedupLastWins).
	// Filtered datasets (SubsetUsers, Trim, binary round-trips)
	// report 0; Upsert and Compact carry the count forward.
	Duplicates int
}

// Describe computes summary statistics.
func (ds *Dataset) Describe() Stats {
	st := Stats{Users: ds.NumUsers(), Items: ds.NumItems(), Ratings: ds.NumRatings(), Duplicates: ds.dups}
	if st.Users > 0 && st.Items > 0 {
		st.Density = float64(st.Ratings) / (float64(st.Users) * float64(st.Items))
	}
	if st.Ratings > 0 {
		sum := 0.0
		if ds.ov == nil {
			for _, v := range ds.vals {
				sum += v
			}
		} else {
			for r := 0; r < st.Users; r++ {
				_, vals := ds.RowIdx(UserIdx(r))
				for _, v := range vals {
					sum += v
				}
			}
		}
		st.MeanRate = sum / float64(st.Ratings)
	}
	return st
}

// String renders stats in a Table-3-like row.
func (st Stats) String() string {
	s := fmt.Sprintf("users=%d items=%d ratings=%d density=%.4f mean=%.2f",
		st.Users, st.Items, st.Ratings, st.Density, st.MeanRate)
	if st.Duplicates > 0 {
		s += fmt.Sprintf(" dups=%d", st.Duplicates)
	}
	return s
}
