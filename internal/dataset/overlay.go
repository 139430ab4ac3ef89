package dataset

import (
	"math"
	"slices"
	"sort"

	"groupform/internal/gferr"
)

// This file implements the mutable side of the rating substrate: a
// delta overlay over the frozen CSR arrays. A Dataset stays an
// immutable value — Upsert never modifies its receiver — but the
// value returned by Upsert shares the receiver's frozen rowPtr /
// colIdx / vals arrays and carries a small overlay of merged rows
// (their own colIdx / vals) for the users whose ratings changed.
// Readers are untouched: every accessor consults the overlay first
// and falls back to the frozen arrays, so in-flight consumers of the
// old value and new consumers of the new value each see one
// consistent snapshot with no locking anywhere.
//
// Index-space invariant: overlay datasets only ever APPEND to the
// index space. A new user or item ID is accepted onto the overlay
// fast path only when it sorts after every existing ID, so the
// ID-ascending index assignment of the frozen arrays stays a prefix
// of the overlay's. An upsert that introduces a mid-range ID (rare —
// live streams allocate fresh IDs upward) falls back to a full
// rebuild, reported via UpsertResult.Rebuilt so engine caches know
// their row indices no longer line up.
//
// Compact materializes the overlay back into plain CSR form — same
// index assignment, byte-identical accessor results — which is the
// background-compaction primitive the serving tier republishes
// through its atomic registry swap.

// overlayRow is one merged row: the user's complete rating row after
// applying every overlay upsert, in index space, sorted ascending like
// a frozen CSR row.
type overlayRow struct {
	colIdx []ItemIdx
	vals   []float64
}

// overlay is the delta state of a mutated Dataset. All fields are
// immutable after construction (Upsert builds a fresh overlay each
// time, cloning the maps it extends), so an overlay may be shared by
// concurrent readers freely.
type overlay struct {
	// baseRows is the frozen row count: rows >= baseRows exist only
	// in the overlay.
	baseRows int
	// rows holds the merged row for every user whose ratings differ
	// from the frozen arrays (including all users appended since).
	rows map[UserIdx]overlayRow
	// extraUsers/extraItems resolve IDs appended past the frozen
	// ID->index tables (ds.userIdx / ds.itemIdx stay aliased to the
	// compact ancestor's maps and are never written again).
	extraUsers map[UserID]UserIdx
	extraItems map[ItemID]ItemIdx
	// upserts counts ratings absorbed since the compact ancestor —
	// the compaction-trigger metric.
	upserts int
	// nratings is the dataset's total rating count (the frozen
	// len(vals) no longer equals it).
	nratings int
}

// UpsertResult reports what one Upsert application changed, in the
// shape Engine invalidation needs: which users' rows differ, how many
// users and items were appended, and whether the fast overlay path
// applied at all.
type UpsertResult struct {
	// Applied is the number of upsert triples processed.
	Applied int
	// Collapsed counts last-write-wins collapses: upserts whose
	// (user, item) pair already had a rating (in the dataset or
	// earlier in the same batch). Each collapse increments
	// Stats.Duplicates, exactly as a duplicate Builder.Add would.
	Collapsed int
	// NewUsers / NewItems count IDs first seen by this batch.
	NewUsers int
	NewItems int
	// DirtyUsers lists the users whose rows changed (including new
	// users), ascending. Nil when Rebuilt.
	DirtyUsers []UserID
	// Rebuilt reports the overlay fast path was abandoned: a new ID
	// sorted inside the existing ID range, so the whole dataset was
	// rebuilt and every row index may have moved. Consumers caching
	// per-index state must invalidate completely.
	Rebuilt bool
}

// OverlayStats describes the delta a Dataset carries over its frozen
// arrays; the zero value means the dataset is compact.
type OverlayStats struct {
	// Upserts is the number of rating upserts absorbed since the
	// last compact state (the compaction-trigger metric).
	Upserts int
	// DirtyRows is the number of rows materialized in the overlay.
	DirtyRows int
	// NewUsers / NewItems count index-space entries appended past
	// the frozen tables.
	NewUsers int
	NewItems int
}

// Overlay reports the dataset's delta state. Compact datasets report
// the zero value.
func (ds *Dataset) Overlay() OverlayStats {
	if ds.ov == nil {
		return OverlayStats{}
	}
	return OverlayStats{
		Upserts:   ds.ov.upserts,
		DirtyRows: len(ds.ov.rows),
		NewUsers:  len(ds.ov.extraUsers),
		NewItems:  len(ds.ov.extraItems),
	}
}

// Upsert applies a batch of rating upserts — new ratings, re-ratings
// and ratings by or for previously unseen users and items — and
// returns the resulting Dataset. The receiver is not modified; the
// result shares the receiver's frozen CSR arrays plus an overlay of
// the changed rows (see the file comment for the fallback that
// rebuilds instead). Duplicate pairs collapse last-write-wins, in
// batch order, through the same dedup path as Builder.Add /
// FromUserEntries, and each collapse counts into Stats.Duplicates.
// Every error wraps gferr.ErrBadConfig.
func (ds *Dataset) Upsert(rs []Rating) (*Dataset, UpsertResult, error) {
	if len(rs) == 0 {
		return nil, UpsertResult{}, gferr.BadConfigf("dataset: upsert batch is empty")
	}
	for _, r := range rs {
		if !ds.scale.Valid(r.Value) {
			return nil, UpsertResult{}, gferr.BadConfigf(
				"dataset: upsert rating %v for user %d item %d outside scale [%v,%v]",
				r.Value, r.User, r.Item, ds.scale.Min, ds.scale.Max)
		}
	}

	// Classify unseen IDs and check the append-only invariant.
	newUsers, newItems, appendable := ds.classifyNew(rs)
	if !appendable {
		nds, res, err := ds.rebuildWith(rs)
		if err != nil {
			return nil, UpsertResult{}, err
		}
		res.NewUsers, res.NewItems = len(newUsers), len(newItems)
		return nds, res, nil
	}

	nds := &Dataset{
		scale:   ds.scale,
		users:   ds.users,
		items:   ds.items,
		userIdx: ds.userIdx,
		itemIdx: ds.itemIdx,
		rowPtr:  ds.rowPtr,
		colIdx:  ds.colIdx,
		vals:    ds.vals,
		dups:    ds.dups,
	}
	ov := &overlay{
		baseRows: len(ds.rowPtr) - 1,
		rows:     make(map[UserIdx]overlayRow, overlayLen(ds.ov)+8),
		upserts:  len(rs),
		nratings: ds.NumRatings(),
	}
	if prev := ds.ov; prev != nil {
		ov.baseRows = prev.baseRows
		for r, row := range prev.rows {
			ov.rows[r] = row
		}
		ov.extraUsers = prev.extraUsers
		ov.extraItems = prev.extraItems
		ov.upserts += prev.upserts
	}

	// Register appended IDs: extend the idx->ID slices (copied — the
	// old value's tables must not move) and clone the extra maps
	// before adding.
	if len(newUsers) > 0 {
		users := make([]UserID, len(ds.users), len(ds.users)+len(newUsers))
		copy(users, ds.users)
		extra := make(map[UserID]UserIdx, len(ov.extraUsers)+len(newUsers))
		for u, r := range ov.extraUsers {
			extra[u] = r
		}
		for _, u := range newUsers {
			extra[u] = UserIdx(len(users))
			users = append(users, u)
		}
		nds.users, ov.extraUsers = users, extra
	}
	if len(newItems) > 0 {
		items := make([]ItemID, len(ds.items), len(ds.items)+len(newItems))
		copy(items, ds.items)
		extra := make(map[ItemID]ItemIdx, len(ov.extraItems)+len(newItems))
		for it, j := range ov.extraItems {
			extra[it] = j
		}
		for _, it := range newItems {
			extra[it] = ItemIdx(len(items))
			items = append(items, it)
		}
		nds.items, ov.extraItems = items, extra
	}
	nds.ov = ov // from here nds.UserIdxOf / ItemIdxOf resolve new IDs

	// Group the batch by user, preserving batch order within a user
	// (later entries must win the dedup).
	byUser := make(map[UserID][]Entry, len(rs))
	var order []UserID
	for _, r := range rs {
		if _, seen := byUser[r.User]; !seen {
			order = append(order, r.User)
		}
		byUser[r.User] = append(byUser[r.User], Entry{Item: r.Item, Value: r.Value})
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })

	// itemCount copies lazily extend to the new item width; the level
	// table widens to the new items and to any new rating value, and
	// its counts share itemCount's allocation.
	m := len(nds.items)
	lv := ds.lv.widened(rs)
	buf := make([]int32, m*(1+lv.n))
	counts := buf[:m:m]
	copy(counts, ds.itemCount)
	nds.itemCount = counts
	if lv.ok {
		lv.Counts = buf[m:]
		ds.lv.copyCounts(&lv)
	}

	collapsed := 0
	var combined []Entry // the merge buffer, reused row to row
	for _, u := range order {
		ups := byUser[u]
		r, _ := nds.UserIdxOf(u)
		var oldCols []ItemIdx
		var oldVals []float64
		if int(r) < len(ds.users) { // existed before this batch
			oldCols, oldVals = ds.RowIdx(r)
		}
		combined = slices.Grow(combined[:0], len(oldCols)+len(ups))
		for p, j := range oldCols {
			combined = append(combined, Entry{Item: ds.items[j], Value: oldVals[p]})
		}
		combined = append(combined, ups...)
		sort.Stable(byItem(combined))
		merged, dups := dedupLastWins(combined)
		collapsed += dups

		row := overlayRow{
			colIdx: make([]ItemIdx, len(merged)),
			vals:   make([]float64, len(merged)),
		}
		// An upsert never removes a rating, so the merged row holds
		// every item of the old one, both ascending: the pass that maps
		// the row to index space also counts the items the batch added
		// and moves the levels of the values it changed.
		q := 0
		for p, e := range merged {
			j, _ := nds.ItemIdxOf(e.Item)
			v := e.Value
			row.colIdx[p] = j
			row.vals[p] = v
			if q < len(oldCols) && oldCols[q] == j {
				if was := oldVals[q]; lv.ok && math.Float64bits(was) != math.Float64bits(v) {
					lv.add(j, was, -1)
					lv.add(j, v, 1)
				}
				q++
				continue
			}
			counts[j]++
			if lv.ok {
				lv.add(j, v, 1)
			}
		}
		ov.nratings += len(merged) - len(oldCols)
		ov.rows[r] = row
	}
	nds.dups += collapsed
	lv.Exact = lv.ok && exactGrid(lv.Values(), ov.nratings)
	nds.lv = lv

	return nds, UpsertResult{
		Applied:    len(rs),
		Collapsed:  collapsed,
		NewUsers:   len(newUsers),
		NewItems:   len(newItems),
		DirtyUsers: order,
	}, nil
}

// classifyNew separates the batch's unseen user and item IDs (sorted
// ascending, deduplicated) and reports whether all of them sort after
// the existing tables — the overlay's append-only requirement.
func (ds *Dataset) classifyNew(rs []Rating) (newUsers []UserID, newItems []ItemID, appendable bool) {
	var uSet map[UserID]struct{}
	var iSet map[ItemID]struct{}
	for _, r := range rs {
		if _, ok := ds.UserIdxOf(r.User); !ok {
			if uSet == nil {
				uSet = make(map[UserID]struct{})
			}
			uSet[r.User] = struct{}{}
		}
		if _, ok := ds.ItemIdxOf(r.Item); !ok {
			if iSet == nil {
				iSet = make(map[ItemID]struct{})
			}
			iSet[r.Item] = struct{}{}
		}
	}
	for u := range uSet {
		newUsers = append(newUsers, u)
	}
	for it := range iSet {
		newItems = append(newItems, it)
	}
	sort.Slice(newUsers, func(a, b int) bool { return newUsers[a] < newUsers[b] })
	sort.Slice(newItems, func(a, b int) bool { return newItems[a] < newItems[b] })
	appendable = true
	if len(newUsers) > 0 && len(ds.users) > 0 && newUsers[0] <= ds.users[len(ds.users)-1] {
		appendable = false
	}
	if len(newItems) > 0 && len(ds.items) > 0 && newItems[0] <= ds.items[len(ds.items)-1] {
		appendable = false
	}
	return newUsers, newItems, appendable
}

// rebuildWith is the overlay fallback: replay the dataset's current
// contents plus the upsert batch through a Builder — the same
// last-write-wins dedup, the same index assignment a from-scratch
// build would produce — and carry the historical duplicate count
// forward.
func (ds *Dataset) rebuildWith(rs []Rating) (*Dataset, UpsertResult, error) {
	b := NewBuilder(ds.scale)
	for _, u := range ds.users {
		if es := ds.UserRatings(u); len(es) > 0 {
			b.rows[u] = es // a fresh copy: the Builder may own it
		}
	}
	for _, r := range rs {
		if err := b.Add(r.User, r.Item, r.Value); err != nil {
			return nil, UpsertResult{}, err
		}
	}
	nds := b.Build()
	collapsed := nds.dups
	nds.dups += ds.dups
	return nds, UpsertResult{Applied: len(rs), Collapsed: collapsed, Rebuilt: true}, nil
}

// Compact materializes the overlay into plain CSR form: same users,
// same items, same index assignment, byte-identical accessor results,
// no overlay left to consult. Compact datasets return themselves.
func (ds *Dataset) Compact() *Dataset {
	if ds.ov == nil {
		return ds
	}
	n := len(ds.users)
	total := ds.NumRatings()
	rowPtr := make([]int32, n+1)
	colIdx := make([]ItemIdx, 0, total)
	vals := make([]float64, 0, total)
	for r := 0; r < n; r++ {
		rowPtr[r] = int32(len(colIdx))
		cols, vs := ds.RowIdx(UserIdx(r))
		colIdx = append(colIdx, cols...)
		vals = append(vals, vs...)
	}
	rowPtr[n] = int32(len(colIdx))
	return newCSR(ds.scale, ds.users, ds.items, rowPtr, colIdx, vals, ds.dups)
}

// overlayLen sizes a cloned overlay row map.
func overlayLen(ov *overlay) int {
	if ov == nil {
		return 0
	}
	return len(ov.rows)
}

// overlayRowIdx resolves row r against the overlay, falling back to
// the frozen arrays. Kept out of line (go:noinline) so the overlay
// branch costs RowIdx only a call node in the inliner's budget —
// RowIdx must stay inlinable into the scorer and rank hot loops,
// where the overlay-free fast path is a nil check plus two slicings.
//
//go:noinline
func (ds *Dataset) overlayRowIdx(r UserIdx) ([]ItemIdx, []float64) {
	if row, ok := ds.ov.rows[r]; ok {
		return row.colIdx, row.vals
	}
	lo, hi := ds.rowPtr[r], ds.rowPtr[r+1]
	return ds.colIdx[lo:hi], ds.vals[lo:hi]
}
