// Package par provides the fan-out primitives of the parallel
// formation pipeline: indexed task execution over a bounded worker
// pool, contiguous range sharding, and fixed-grid chunking.
//
// Every primitive assigns work by index so results land in pre-sized
// slices owned by exactly one task; nothing a caller observes depends
// on goroutine scheduling. Determinism of the *merged* values is the
// caller's contract — the helpers here only make the race-free part
// structural:
//
//   - Ranges produces one contiguous, ascending range per part. Its
//     callers need no merge: rank.AllTopKParallel writes each user's
//     list at the user's own index, and dataset.ShardUsers cuts the
//     user rows into the scatter-gather tier's shards (whose buckets
//     core.MergeShardBuckets merges in shard order).
//   - Chunks produces a grid that depends only on the input size,
//     never on the worker count, so chunk-indexed reductions merge
//     identically for every worker count (see semantics.Scorer.TopK).
package par

import (
	"sync"
	"sync/atomic"
)

// Enabled reports whether a worker count selects the parallel path.
func Enabled(workers int) bool { return workers >= 2 }

// Do runs fn(i) for every i in [0, n), fanning the calls out over at
// most workers goroutines, and returns when all calls have returned.
// With workers <= 1 (or n <= 1) the calls run inline, in ascending
// order — the serial reference behavior. Tasks are handed out through
// an atomic counter (dynamic load balancing), so fn must write only
// state owned by its index.
func Do(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Ranges splits n items into at most workers contiguous, near-even
// [lo, hi) ranges in ascending order. Earlier ranges are at most one
// element larger than later ones; with workers >= n every range is a
// single element. The boundary placement depends on the worker count,
// so a caller whose output must not depend on it writes each result
// at its element's own index (package comment).
func Ranges(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if n <= 0 {
		return nil
	}
	rs := make([][2]int, workers)
	for i := range rs {
		rs[i][0], rs[i][1] = Range(n, workers, i)
	}
	return rs
}

// Range returns Ranges(n, parts)[i] without allocating. It requires
// 1 <= parts <= n and 0 <= i < parts.
func Range(n, parts, i int) (lo, hi int) {
	size, extra := n/parts, n%parts
	lo = i*size + min(i, extra)
	hi = lo + size
	if i < extra {
		hi++
	}
	return lo, hi
}

// Chunks splits n items into fixed-size [lo, hi) chunks of at most
// size elements, in ascending order; the final chunk holds the
// remainder. The grid depends only on n and size — never on the
// worker count — which is what lets chunk-indexed reductions produce
// the same merged value no matter how many workers processed them.
func Chunks(n, size int) [][2]int {
	if size < 1 {
		size = 1
	}
	if n <= 0 {
		return nil
	}
	rs := make([][2]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		rs = append(rs, [2]int{lo, hi})
	}
	return rs
}
