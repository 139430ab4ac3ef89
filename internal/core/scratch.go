// Per-run scratch for the formation pipeline. A Scratch owns every
// reusable buffer of a serial run — the bucket table and the partition
// it fills (key bytes, item lists, folded scores, members, each user's
// bucket), the score/item arenas, the plan's ranking, selection and
// task arrays, the semantics top-k scratch and the Result with its
// Groups — so a warm Engine.FormInto on a bound dataset runs without
// allocating.
//
// There is one ownership rule: a run carves everything, the Result
// included, from its scratch (or reads it from a cached Partition,
// which nothing writes once built) and reuses the scratch's memory on
// its next run, so a returned Result is valid only until then, and a
// Scratch must never be used from two goroutines at once. Form and
// FormWithPrefs are FormInto on a pooled scratch plus one copy-out of
// the Result, and BucketizeShard clones its buckets out of a pooled
// scratch.
//
// Nothing outlives a run but capacity: the bucket table is cleared at
// the start of every bucketize, so a scratch fed any number of
// catalogs retains what its largest run needed and no key of an
// earlier one.
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

// arena is a block-chained bump allocator for result slices (rescored
// piece positions, completed top-k lists). take never moves memory
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
	// The bucketize pass: its open-addressing table over bucket keys,
	// the key being encoded, per-bucket member counts (then fill
	// cursors), and the partition the pass fills.
	table  []tableSlot
	keyBuf []byte
	counts []int32
	part   Partition

	scoreArena arena[float64]
	itemArena  arena[dataset.ItemID]

	ranked   []rankedBucket
	selected []bool // plan's L-1 buckets, by bucket; all false between plans
	tasks    []groupTask
	groups   []Group
	errs     []error
	rest     []dataset.UserID
	excl     []dataset.UserIdx
	midx     []dataset.UserIdx
	topk     semantics.TopKScratch
	oracle   localOracle

	result Result
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs Form, FormWithPrefs, BucketizeShard and
// NewPartition, so one-shot callers still reuse a warm scratch across
// calls.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// begin readies the scratch for one run: the arenas rewind over their
// retained blocks.
func (s *Scratch) begin() {
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
