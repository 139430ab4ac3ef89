// Per-run scratch for the formation pipeline. A Scratch owns every
// reusable buffer of a serial run — the bucket-key intern table,
// assignment/count arrays, the member arena, the bucket score/item
// arenas, the plan's ranking and task arrays, the semantics top-k
// scratch and the Result with its Groups — so a warm
// Engine.FormInto on a bound dataset runs without allocating.
//
// There is one ownership rule: a run carves everything, the Result
// included, from its scratch and reuses it on the scratch's next run,
// so a returned Result is valid only until then, and a Scratch must
// never be used from two goroutines at once. Form and FormWithPrefs
// are FormInto on a pooled scratch plus one copy-out of the Result,
// and BucketizeShard clones its buckets out of a pooled scratch.
//
// The intern table persists across runs: bucket keys are
// deterministic byte strings, so steady-state traffic hits the table
// and never re-materializes a key. It is dropped and rebuilt when it
// outgrows maxInternedKeys, bounding memory on pathological
// many-dataset reuse.
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

// arena is a block-chained bump allocator for result slices (bucket
// score positions, completed top-k lists). take never moves memory
// previously handed out within a run; reset rewinds over the retained
// blocks.
type arena[T any] struct {
	blocks [][]T
	bi     int // current block
	off    int // bump offset into blocks[bi]
}

func (a *arena[T]) reset() {
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
// with the facade. See the comment at the top of this file for the
// ownership rule.
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

	ranked []rankedBucket
	tasks  []groupTask
	groups []Group
	errs   []error
	rest   []dataset.UserID
	excl   []dataset.UserIdx
	midx   []dataset.UserIdx
	topk   semantics.TopKScratch
	oracle localOracle

	result Result
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs Form, FormWithPrefs and BucketizeShard, so
// one-shot callers still reuse a warm scratch across calls.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// begin readies the scratch for one run: the per-run key mapping is
// reset and the arenas rewind over their retained blocks.
func (s *Scratch) begin() {
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
	s.scoreArena.reset()
	s.itemArena.reset()
}

// errSlice returns a nil-cleared length-n error slice.
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
