// Per-run scratch for the formation pipeline. A Scratch owns every
// reusable buffer a serial Form needs — the bucket-key intern table,
// assignment/count arrays, the member arena, the bucket score/item
// arenas, heap state, and the semantics top-k scratch — so a warm
// Engine.FormInto on a bound dataset runs without allocating.
//
// Ownership rules:
//
//   - Safe mode (Form/FormWithPrefs, pooled scratch): buffers that
//     escape into the returned Result — the member arena, the bucket
//     score/item arena blocks, the Groups slice — are freshly
//     allocated every run (the arenas drop their blocks at begin), so
//     Results keep the historical own-your-result contract. Only
//     transient state (intern table, assign/counts, heap arrays,
//     candidate buffers, dense-accumulator lease) is recycled.
//   - Owned mode (FormInto, caller scratch): everything, including the
//     Result and its arrays, is carved from the scratch and reused.
//     The returned Result is valid only until the scratch's next use,
//     and a Scratch must never be used from two goroutines at once.
//
// The intern table is the one piece that persists across runs in both
// modes: bucket keys are deterministic byte strings, so steady-state
// traffic hits the table and never re-materializes a key. It is
// dropped and rebuilt when it outgrows maxInternedKeys, bounding
// memory on pathological many-dataset reuse.
package core

import (
	"sync"

	"groupform/internal/dataset"
	"groupform/internal/semantics"
)

// arenaMinBlock is the first block size of a scratch arena; later
// blocks double, so reaching any high-water mark costs O(log) block
// allocations and steady state costs none.
const arenaMinBlock = 1024

// maxInternedKeys bounds the persistent key intern table; beyond it
// the table is rebuilt from empty at the next run.
const maxInternedKeys = 1 << 18

// arena is a block-chained bump allocator for result-owned slices
// (bucket score positions, completed top-k lists). take never moves
// memory previously handed out within a run; reset either rewinds over
// the retained blocks (owned mode) or drops them so escaped slices
// stay private to their Result (safe mode).
type arena[T any] struct {
	blocks [][]T
	bi     int // current block
	off    int // bump offset into blocks[bi]
}

func (a *arena[T]) reset(retain bool) {
	if !retain {
		a.blocks = nil
	}
	a.bi, a.off = 0, 0
}

// take returns an owned length-n slice with capacity pinned to n, so a
// caller's append can never bleed into a neighbor's carve.
func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for {
		if a.bi >= len(a.blocks) {
			size := arenaMinBlock
			if len(a.blocks) > 0 {
				size = 2 * len(a.blocks[len(a.blocks)-1])
			}
			if size < n {
				size = n
			}
			a.blocks = append(a.blocks, make([]T, size))
		}
		b := a.blocks[a.bi]
		if a.off+n <= len(b) {
			s := b[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
		if a.off == 0 {
			// A retained block from a smaller run can't even hold one
			// carve; replace it in place.
			a.blocks[a.bi] = make([]T, n)
			continue
		}
		a.bi++
		a.off = 0
	}
}

// copyIn carves a copy of src.
func (a *arena[T]) copyIn(src []T) []T {
	dst := a.take(len(src))
	copy(dst, src)
	return dst
}

// Scratch owns the reusable state of formation runs. The zero value is
// ready to use; NewScratch pre-sizes nothing and exists for symmetry
// with the facade. See the package comment of this file for the
// safe/owned ownership rules.
type Scratch struct {
	// Persistent bucket-key interning: key bytes -> key id, the
	// canonical string per id, and the per-run id -> bucket mapping
	// (reset via touchedKeys between runs).
	intern      map[string]int32
	keys        []string
	keyToBucket []int32
	touchedKeys []int32

	keyBuf  []byte
	assign  []int32
	counts  []int32
	bs      []bucket
	outPtrs []*bucket
	offs    []int32
	cur     []int32

	memberArena []dataset.UserID
	scoreArena  arena[float64]
	itemArena   arena[dataset.ItemID]

	heap   bucketHeap
	tasks  []groupTask
	groups []Group
	errs   []error
	rest   []dataset.UserID
	midx   []dataset.UserIdx
	topk   semantics.TopKScratch
	oracle localOracle

	result Result
	owned  bool
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// formScratchPool backs the safe Form/FormWithPrefs entry points, so
// one-shot callers still amortize the transient state across calls.
var formScratchPool = sync.Pool{New: func() any { return NewScratch() }}

// begin readies the scratch for one run. Owned mode rewinds the
// arenas over their retained blocks; safe mode drops every
// result-owned buffer so previously returned Results stay untouched.
func (s *Scratch) begin(owned bool) {
	s.owned = owned
	if s.intern == nil || len(s.keys) > maxInternedKeys {
		s.intern = make(map[string]int32)
		s.keys = s.keys[:0]
		s.keyToBucket = s.keyToBucket[:0]
		s.touchedKeys = s.touchedKeys[:0]
	}
	for _, id := range s.touchedKeys {
		s.keyToBucket[id] = -1
	}
	s.touchedKeys = s.touchedKeys[:0]
	s.scoreArena.reset(owned)
	s.itemArena.reset(owned)
	if !owned {
		s.memberArena = nil
		s.groups = nil
		s.rest = nil
		// The remaining reusable structures hold pointers into the
		// previous run's escaped Result (bucket member/score slices,
		// Group arrays, errors). Zero their full backing so a pooled
		// scratch never pins a dropped Result's memory — capacity is
		// kept, so this is a memclr, not an allocation. Owned mode
		// skips this: there the stale references point into the
		// scratch's own retained memory anyway, and the clear would
		// cost O(high-water mark) per serve.
		clearFull(s.bs)
		clearFull(s.outPtrs)
		clearFull(s.tasks)
		clearFull(s.errs)
		clearFull(s.heap.bs)
		s.result = Result{}
	}
}

// clearFull zeroes a slice's entire backing array, [0, cap): entries
// beyond the current length are unreachable through the slice but
// still pin their referents for the garbage collector.
func clearFull[T any](s []T) {
	clear(s[:cap(s)])
}

// memberSlice returns the length-n backing for this run's bucket
// member arena: scratch-owned in owned mode, escaping-fresh otherwise.
//
//gfvet:zeroalloc
func (s *Scratch) memberSlice(n int) []dataset.UserID {
	if !s.owned {
		return make([]dataset.UserID, n)
	}
	if cap(s.memberArena) < n {
		s.memberArena = make([]dataset.UserID, n)
	}
	return s.memberArena[:n]
}

// groupSlice returns the length-n Groups backing (same ownership split
// as memberSlice).
//
//gfvet:zeroalloc
func (s *Scratch) groupSlice(n int) []Group {
	if !s.owned {
		return make([]Group, n)
	}
	if cap(s.groups) < n {
		s.groups = make([]Group, n)
	}
	s.groups = s.groups[:n]
	return s.groups
}

// errSlice returns a nil-cleared length-n error slice (always
// transient).
//
//gfvet:zeroalloc
func (s *Scratch) errSlice(n int) []error {
	if cap(s.errs) < n {
		s.errs = make([]error, n)
	}
	e := s.errs[:n]
	for i := range e {
		e[i] = nil
	}
	return e
}

// newResult returns this run's Result: the scratch's own in owned
// mode, a fresh one otherwise.
//
//gfvet:zeroalloc
func (s *Scratch) newResult() *Result {
	if !s.owned {
		return &Result{}
	}
	s.result = Result{}
	return &s.result
}
