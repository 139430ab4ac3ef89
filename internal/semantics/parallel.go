// Candidate accumulation for Scorer.TopK. One pass over the members'
// ratings accumulates every candidate item's min, weighted sum and
// rater count, from which both semantics follow in O(total ratings) —
// crucial for the merged l-th group of the greedy algorithms, whose
// member count can approach n. For large groups the pass is fanned
// out over a worker pool on a fixed chunk grid and the chunk partials
// are merged in chunk order; see Scorer.Workers for the determinism
// contract.
//
// Two backends execute the same fold:
//
//   - The dense index-space backend (default, AccumDense): pooled
//     flat arrays keyed by dataset.ItemIdx, fed directly from CSR
//     rows. No hashing, no per-item pointer chasing; the touched list
//     keeps reset cost proportional to the candidate count, not the
//     catalog size.
//   - The legacy map backend (AccumMap): map[ItemID]*acc, retained as
//     the reference implementation the dense path is parity-tested
//     against.
//
// Per-item arithmetic is literally the same operation sequence in
// both (seed on first touch, fold afterwards, chunk-ordered merges),
// so their outputs are bit-identical.
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

// acc accumulates one candidate item across the members seen so far.
type acc struct {
	min     float64
	wsum    float64
	count   int
	wraters float64
}

// accMapPool recycles chunk-partial maps across parallel TopK calls
// — the reusable scorer cache. Within one call every chunk draws its
// own map (all Gets precede the Puts), so the win is across calls:
// repeated formation runs — benchmark iterations, experiment sweeps,
// a server forming groups per request — reuse the previous run's
// grown maps instead of rebuilding them. Only maps whose *acc values
// were merged away are returned (cleared, capacity retained); the
// map adopted as the result never is.
var accMapPool = sync.Pool{
	New: func() any { return make(map[dataset.ItemID]*acc) },
}

// accumulateInto folds the members' ratings into cand in member
// order: first rating of an item seeds the accumulator, later ratings
// fold min/sum/count. This is the single reference fold both the
// serial and the parallel paths execute.
func (sc Scorer) accumulateInto(cand map[dataset.ItemID]*acc, members []dataset.UserID) {
	for _, u := range members {
		w := sc.Weight(u)
		for _, e := range sc.DS.UserRatings(u) {
			a, ok := cand[e.Item]
			if !ok {
				cand[e.Item] = &acc{min: e.Value, wsum: w * e.Value, count: 1, wraters: w}
				continue
			}
			if e.Value < a.min {
				a.min = e.Value
			}
			a.wsum += w * e.Value
			a.count++
			a.wraters += w
		}
	}
}

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

// denseAccPool recycles accumulators across TopK calls — the dense
// counterpart of accMapPool, and the reason repeated formation runs
// (benchmark iterations, experiment sweeps, a serving process) pay no
// per-call array allocation once warm.
var denseAccPool = sync.Pool{New: func() any { return new(denseAcc) }}

// acquireDense returns a cleared accumulator with at least m slots.
func acquireDense(m int) *denseAcc {
	da := denseAccPool.Get().(*denseAcc)
	da.ensure(m)
	return da
}

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
// invariant ensure/acquireDense rely on. Every count mutation goes
// through the touched list (including the listed-marker trick in
// PseudoUserTopK), so this is complete.
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
// reading CSR rows by index. Per item this executes exactly the
// seed/fold sequence of accumulateInto, so the two backends agree
// bit-for-bit; members unknown to the dataset contribute nothing,
// like their nil UserRatings row always did.
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

// accumulateIdxParallel is accumulateIdx fanned out on the same fixed
// topkChunk grid as the map backend, with chunk partials merged in
// chunk order (adopt chunk 0, fold later chunks element-wise — the
// identical merge arithmetic, so the determinism contract of
// Scorer.Workers carries over unchanged).
func (sc Scorer) accumulateIdxParallel(members []dataset.UserID, m int) *denseAcc {
	chunks := par.Chunks(len(members), topkChunk)
	partials := make([]*denseAcc, len(chunks))
	par.Do(len(chunks), sc.Workers, func(c int) {
		da := acquireDense(m)
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

// accumulateParallel runs the reference fold per fixed-size chunk of
// members concurrently, then left-folds the chunk partials in chunk
// order. The min merge keeps the earlier chunk's value on ties,
// matching the serial fold's keep-first behavior exactly; count is
// integer-exact; the AV sums reassociate (chunk-tree instead of flat
// left fold), which is bit-exact for exactly-representable weighted
// ratings and deterministic for every worker count regardless.
func (sc Scorer) accumulateParallel(members []dataset.UserID) map[dataset.ItemID]*acc {
	chunks := par.Chunks(len(members), topkChunk)
	partials := make([]map[dataset.ItemID]*acc, len(chunks))
	par.Do(len(chunks), sc.Workers, func(c int) {
		m := accMapPool.Get().(map[dataset.ItemID]*acc)
		sc.accumulateInto(m, members[chunks[c][0]:chunks[c][1]])
		partials[c] = m
	})
	out := partials[0]
	for _, m := range partials[1:] {
		for it, a := range m {
			b, ok := out[it]
			if !ok {
				out[it] = a
				continue
			}
			if a.min < b.min {
				b.min = a.min
			}
			b.wsum += a.wsum
			b.count += a.count
			b.wraters += a.wraters
		}
		clear(m)
		accMapPool.Put(m)
	}
	return out
}
