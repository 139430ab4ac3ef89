// Candidate accumulation for Scorer.TopK. One pass over the members'
// ratings accumulates every candidate item's min, weighted sum and
// rater count, from which both semantics follow in O(total ratings).
// The greedy algorithms run it to complete LM-MAX bucket lists and to
// score a merged l-th group that holds fewer ratings than the users it
// excludes, such as the 1k–3.5k-user remainders of a clustered catalog
// at large L; a remainder that approaches n is scored by its
// complement instead (ComplementTopKInto). For groups above one chunk
// the pass is fanned out over a worker pool on a fixed chunk grid and
// the chunk partials are merged in chunk order; see Scorer.Workers for
// the determinism contract.
//
// The accumulator is index-space: flat arrays keyed by
// dataset.ItemIdx, fed directly from CSR rows. No hashing, no per-item
// pointer chasing; the touched list keeps reset cost proportional to
// the candidate count, not the catalog size.
package semantics

import (
	"sync"

	"groupform/internal/dataset"
	"groupform/internal/par"
)

// topkChunk is the fixed accumulation grid: members are cut into
// chunks of this size regardless of the worker count, so the merge
// sequence — and therefore every merged float — depends only on the
// member list, never on scheduling. Groups at or below one chunk stay
// on the serial path.
const topkChunk = 1024

// denseAcc is the index-space accumulator: one slot per ItemIdx in
// four parallel flat arrays, plus the first-touch order of the slots
// actually used. count[j] == 0 marks an untouched slot, so only
// counts need clearing on release; min/wsum/wraters are overwritten
// by the seeding write of the next use.
type denseAcc struct {
	min     []float64
	wsum    []float64
	wraters []float64
	count   []int32
	touched []dataset.ItemIdx
}

// denseAccPool recycles the parallel path's chunk partials across
// TopK calls, so repeated formation runs pay no per-call array
// allocation once warm; the serial path uses TopKScratch's lease.
var denseAccPool = sync.Pool{New: func() any { return new(denseAcc) }}

// ensure sizes the accumulator for m slots, growing the arrays only
// when a larger catalog than ever before comes through.
func (da *denseAcc) ensure(m int) {
	if cap(da.min) < m {
		da.min = make([]float64, m)
		da.wsum = make([]float64, m)
		da.wraters = make([]float64, m)
		da.count = make([]int32, m)
	}
	da.min = da.min[:m]
	da.wsum = da.wsum[:m]
	da.wraters = da.wraters[:m]
	da.count = da.count[:m]
}

// clear resets the touched slots, restoring the all-zero-counts
// invariant ensure relies on. A count leaves zero only on a slot's
// first touch, which also appends the slot to the touched list, so
// this is complete.
func (da *denseAcc) clear() {
	for _, j := range da.touched {
		da.count[j] = 0
	}
	da.touched = da.touched[:0]
}

// release clears the accumulator and returns it to the pool; leased
// accumulators (TopKScratch) call clear directly and stay owned.
func (da *denseAcc) release() {
	da.clear()
	denseAccPool.Put(da)
}

// stats returns slot j as the ItemStats record of item index j of ds;
// the slot must be touched.
func (da *denseAcc) stats(ds *dataset.Dataset, j dataset.ItemIdx) ItemStats {
	return ItemStats{Item: ds.ItemAt(j), Min: da.min[j], Count: int(da.count[j]), WSum: da.wsum[j], WRaters: da.wraters[j]}
}

// accumulateIdx folds the members' ratings into da in member order,
// reading CSR rows by index: an item's first rating seeds its slot,
// later ones fold into it. Members unknown to the dataset contribute
// nothing.
func (sc Scorer) accumulateIdx(da *denseAcc, members []dataset.UserID) {
	ds := sc.DS
	for _, u := range members {
		r, ok := ds.UserIdxOf(u)
		if !ok {
			continue
		}
		w := sc.Weight(u)
		cols, vals := ds.RowIdx(r)
		for p, j := range cols {
			v := vals[p]
			if da.count[j] == 0 {
				da.min[j], da.wsum[j], da.wraters[j], da.count[j] = v, w*v, w, 1
				da.touched = append(da.touched, j)
			} else {
				if v < da.min[j] {
					da.min[j] = v
				}
				da.wsum[j] += w * v
				da.count[j]++
				da.wraters[j] += w
			}
		}
	}
}

// accumulateIdxParallel is accumulateIdx fanned out on the fixed
// topkChunk grid, with chunk partials merged in chunk order: adopt
// chunk 0, fold later chunks slot by slot, keeping the earlier min on
// ties. LM is therefore bit-exact against the serial fold; the AV sums
// reassociate, which is exact for exactly representable weighted
// ratings and deterministic for every worker count regardless.
func (sc Scorer) accumulateIdxParallel(members []dataset.UserID, m int) *denseAcc {
	chunks := par.Chunks(len(members), topkChunk)
	partials := make([]*denseAcc, len(chunks))
	par.Do(len(chunks), sc.Workers, func(c int) {
		da := denseAccPool.Get().(*denseAcc)
		da.ensure(m)
		sc.accumulateIdx(da, members[chunks[c][0]:chunks[c][1]])
		partials[c] = da
	})
	out := partials[0]
	for _, da := range partials[1:] {
		for _, j := range da.touched {
			if out.count[j] == 0 {
				out.min[j], out.wsum[j], out.wraters[j], out.count[j] = da.min[j], da.wsum[j], da.wraters[j], da.count[j]
				out.touched = append(out.touched, j)
			} else {
				if da.min[j] < out.min[j] {
					out.min[j] = da.min[j]
				}
				out.wsum[j] += da.wsum[j]
				out.count[j] += da.count[j]
				out.wraters[j] += da.wraters[j]
			}
		}
		da.release()
	}
	return out
}
