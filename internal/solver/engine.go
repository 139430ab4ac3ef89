package solver

import (
	"context"
	"sync"
	"sync/atomic"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/rank"
)

// Engine binds a Dataset once and amortizes the expensive shared
// per-dataset state across solves. Two caches, both per (K, Missing):
//
//   - the O(nk) preference lists of internal/rank, built on the first
//     request for the key, so repeated Engine.Form runs with different
//     L, semantics or aggregation skip the list construction. They are
//     arena-backed (two flat arrays per slot, see
//     rank.AllTopKParallel);
//   - beside each slot's lists, one read-only bucket partition per
//     hashing-key kind (core.PartitionKind: LM-MIN, LM-MAX, LM-SUM and
//     the weighted sums, and one AV partition every unweighted AV
//     aggregation shares), so a request whose partition is cached
//     starts at the plan: bucketizing does not depend on L. A
//     partition is filled by the second request for it, never the
//     first (an engine an ingest stream replaces every few requests
//     should not pay fills it never uses), and no request ever waits
//     on another's fill: while one is in flight the others bucketize
//     on their own scratch. Weighted AV always bucketizes.
//
// An Engine is safe for concurrent use. Cached lists and partitions
// are shared read-only between concurrent solves, and results are
// byte-identical to the one-shot core.Form path. FormInto's Results
// may alias a cached partition (read-only, like everything a borrowed
// Result points into); Form's Results are caller-owned: they share no
// memory with the caches or with any scratch.
type Engine struct {
	ds *dataset.Dataset

	mu    sync.Mutex // guards the prefs map only, never held during builds
	prefs map[prefKey]*prefEntry

	prefBuilds      atomic.Uint64
	prefHits        atomic.Uint64
	partitionBuilds atomic.Uint64
	partitionHits   atomic.Uint64

	// Advance accounting; cumulative across the whole Advance chain
	// (each derived Engine starts from its predecessor's totals).
	partialInvalidations atomic.Uint64
	fullInvalidations    atomic.Uint64
	rowsPatched          atomic.Uint64
	rowsReused           atomic.Uint64
}

// prefKey identifies one cached preference-list slice: the lists
// depend only on the list length and the missing-rating imputation.
type prefKey struct {
	k       int
	missing float64
}

// prefEntry is one cache slot. At most one goroutine builds it at a
// time; others wait on done with their own context, so a cold build
// for one key stalls neither traffic on other keys nor a same-key
// waiter whose context expires mid-wait.
type prefEntry struct {
	building bool
	done     chan struct{}   // closed when the in-flight build attempt ends
	lists    []rank.PrefList // nil until a build succeeds
	parts    [core.PartitionKinds]partSlot
}

// partSlot is one kind's bucket partition over a slot's lists. state
// counts the requests that found no partition up to the fill: the
// first request only marks the slot seen, the second claims the fill,
// and a failed fill hands the claim back to the next request.
type partSlot struct {
	part  atomic.Pointer[core.Partition]
	state atomic.Int32
}

// Partition slot states.
const (
	partUnseen int32 = iota
	partSeen
	partFilling
)

// EngineStats counts cache activity; see Engine.Stats.
type EngineStats struct {
	// PrefBuilds is the number of preference-list constructions the
	// engine has paid for (distinct (K, Missing) pairs requested).
	PrefBuilds uint64
	// PrefHits is the number of solves served from the cache.
	PrefHits uint64
	// PartitionBuilds is the number of bucket partitions filled, and
	// PartitionHits the number of solves that started from a cached
	// one (a fill request counts as a build, not a hit).
	PartitionBuilds uint64
	PartitionHits   uint64

	// PartialInvalidations counts cache slots carried across an
	// Advance with at least one row rebuilt (a surgical patch, not a
	// drop). FullInvalidations counts Advance calls that discarded
	// the whole cache because the successor dataset renumbered its
	// index space (UpsertResult.Rebuilt).
	PartialInvalidations uint64
	FullInvalidations    uint64

	// RowsPatched / RowsReused break carried slots down by row:
	// patched rows were re-ranked against the successor dataset,
	// reused rows are the predecessor's PrefList values verbatim.
	RowsPatched uint64
	RowsReused  uint64
}

// NewEngine binds ds. The dataset must be non-empty; like every
// Dataset it is immutable, which is what makes the cache sound.
func NewEngine(ds *dataset.Dataset) (*Engine, error) {
	if ds == nil || ds.NumUsers() == 0 {
		return nil, gferr.BadConfigf("engine: Dataset must be non-empty")
	}
	return &Engine{ds: ds, prefs: make(map[prefKey]*prefEntry)}, nil
}

// Dataset returns the bound dataset.
func (e *Engine) Dataset() *dataset.Dataset { return e.ds }

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		PrefBuilds:           e.prefBuilds.Load(),
		PrefHits:             e.prefHits.Load(),
		PartitionBuilds:      e.partitionBuilds.Load(),
		PartitionHits:        e.partitionHits.Load(),
		PartialInvalidations: e.partialInvalidations.Load(),
		FullInvalidations:    e.fullInvalidations.Load(),
		RowsPatched:          e.rowsPatched.Load(),
		RowsReused:           e.rowsReused.Load(),
	}
}

// Advance derives an Engine bound to ds, a successor of the current
// dataset produced by Upsert or Compact, reusing every cached
// preference list whose user row the delta left untouched. This is
// the incremental-invalidation path: instead of the all-or-nothing
// implicit invalidation of building a fresh Engine, only dirty rows
// are re-ranked, per cached (K, Missing) slot.
//
// A row is dirty when its ratings changed (delta.DirtyUsers) or when
// it did not exist before (appended users). Everything else is
// carried over verbatim. The append-only index-space invariant of
// dataset.Upsert guarantees that untouched rows rank identically
// under the successor dataset: new items take the largest indices,
// and rank.TopK pads a short row with its first unrated items in
// index order, which a slot (built with K at most the old item count)
// always finds among the old items. dataset.Compact preserves index
// assignment, so an Advance with a zero delta (the compaction
// republish) is a pure rebind that keeps the warm cache, filled bucket
// partitions included. A slot with any row re-ranked drops its
// partitions, since one moved user can change a bucket's scores or
// members; the successor refills them on demand.
//
// If the delta took the rebuild fallback (delta.Rebuilt), indices
// were renumbered and every cached list is dropped. In-flight builds
// on the receiver are never carried; they complete against the old
// dataset for old-engine callers. The receiver itself is unchanged
// and remains valid. Counters accumulate across the Advance chain.
func (e *Engine) Advance(ds *dataset.Dataset, delta dataset.UpsertResult) (*Engine, error) {
	ne, err := NewEngine(ds)
	if err != nil {
		return nil, err
	}
	ne.prefBuilds.Store(e.prefBuilds.Load())
	ne.prefHits.Store(e.prefHits.Load())
	ne.partitionBuilds.Store(e.partitionBuilds.Load())
	ne.partitionHits.Store(e.partitionHits.Load())
	ne.partialInvalidations.Store(e.partialInvalidations.Load())
	ne.fullInvalidations.Store(e.fullInvalidations.Load())
	ne.rowsPatched.Store(e.rowsPatched.Load())
	ne.rowsReused.Store(e.rowsReused.Load())

	if delta.Rebuilt {
		ne.fullInvalidations.Add(1)
		return ne, nil
	}

	// Snapshot completed slots under the lock; builds are never run
	// while holding it, so this cannot stall old-engine traffic.
	type snap struct {
		key prefKey
		ent *prefEntry
	}
	e.mu.Lock()
	snaps := make([]snap, 0, len(e.prefs))
	for key, ent := range e.prefs {
		if ent.lists != nil {
			snaps = append(snaps, snap{key: key, ent: ent})
		}
	}
	e.mu.Unlock()
	if len(snaps) == 0 {
		return ne, nil
	}

	n := ds.NumUsers()
	dirty := make([]bool, n)
	for _, u := range delta.DirtyUsers {
		if r, ok := ds.UserIdxOf(u); ok {
			dirty[int(r)] = true
		}
	}

	for _, sn := range snaps {
		lists := sn.ent.lists
		out := make([]rank.PrefList, n)
		patched, reused := 0, 0
		for r := 0; r < n; r++ {
			if r < len(lists) && !dirty[r] {
				out[r] = lists[r]
				reused++
				continue
			}
			pl, err := rank.TopK(ds, ds.UserAt(dataset.UserIdx(r)), sn.key.k, sn.key.missing)
			if err != nil {
				return nil, err
			}
			out[r] = pl
			patched++
		}
		ent := &prefEntry{lists: out}
		ne.prefs[sn.key] = ent
		if patched > 0 {
			ne.partialInvalidations.Add(1)
		} else {
			// Every list carried verbatim (the compaction republish):
			// the filled partitions are this slot's passes too.
			for i := range ent.parts {
				if p := sn.ent.parts[i].part.Load(); p != nil {
					ent.parts[i].part.Store(p)
				}
			}
		}
		ne.rowsPatched.Add(uint64(patched))
		ne.rowsReused.Add(uint64(reused))
	}
	return ne, nil
}

// prefSlot returns the cache slot for (k, missing) with its lists
// built, building them on first request. The map lock is held only for
// slot bookkeeping, never during a build, so a cold build for one key
// does not stall traffic on other keys; concurrent first requests for
// one key pay a single build, with waiters parked on a select against
// their own context (a waiter whose context expires returns
// ErrCanceled immediately instead of riding out someone else's
// build). A build aborted by cancellation leaves the slot empty and
// wakes the waiters, one of which becomes the next builder.
func (e *Engine) prefSlot(ctx context.Context, k int, missing float64, workers int) (*prefEntry, error) {
	key := prefKey{k: k, missing: missing}
	for {
		e.mu.Lock()
		ent, ok := e.prefs[key]
		if !ok {
			ent = &prefEntry{}
			e.prefs[key] = ent
		}
		if ent.lists != nil {
			e.mu.Unlock()
			e.prefHits.Add(1)
			return ent, nil
		}
		if !ent.building {
			ent.building = true
			ent.done = make(chan struct{})
			e.mu.Unlock()

			lists, err := rank.AllTopKParallel(ctx, e.ds, k, missing, workers)

			e.mu.Lock()
			ent.building = false
			close(ent.done)
			if err == nil {
				ent.lists = lists
			}
			e.mu.Unlock()
			if err != nil {
				return nil, err
			}
			e.prefBuilds.Add(1)
			return ent, nil
		}
		done := ent.done
		e.mu.Unlock()
		select {
		case <-done:
			// The build attempt ended (either way); re-check the slot.
		case <-ctx.Done():
			return nil, gferr.Ctx(ctx)
		}
	}
}

// prepare validates cfg and returns its preference lists and, when
// cfg has a partition kind and its partition is cached or this request
// fills it, the partition; nil sends the request down the bucketizing
// path. A failed fill (a canceled request) returns its error and
// leaves the slot for the next request to fill.
func (e *Engine) prepare(ctx context.Context, cfg core.Config) ([]rank.PrefList, *core.Partition, error) {
	if err := cfg.Validate(e.ds); err != nil {
		return nil, nil, err
	}
	ent, err := e.prefSlot(ctx, cfg.K, cfg.Missing, cfg.EffectiveWorkers())
	if err != nil {
		return nil, nil, err
	}
	kind, ok := cfg.PartitionKind()
	if !ok {
		return ent.lists, nil, nil
	}
	ps := &ent.parts[kind]
	if p := ps.part.Load(); p != nil {
		e.partitionHits.Add(1)
		return ent.lists, p, nil
	}
	if ps.state.CompareAndSwap(partUnseen, partSeen) || !ps.state.CompareAndSwap(partSeen, partFilling) {
		return ent.lists, nil, nil
	}
	p, err := core.NewPartition(ctx, e.ds, cfg, ent.lists)
	if err != nil {
		ps.state.Store(partSeen)
		return nil, nil, err
	}
	ps.part.Store(p)
	e.partitionBuilds.Add(1)
	return ent.lists, p, nil
}

// Form runs the greedy algorithm (registry name "grd") on the bound
// dataset, reusing cached preference lists and bucket partitions. The
// formed groups are byte-identical to core.Form's for every cache
// state and worker count.
func (e *Engine) Form(ctx context.Context, cfg core.Config) (*core.Result, error) {
	prefs, part, err := e.prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return core.FormWithPartition(ctx, e.ds, cfg, prefs, part)
}

// FormInto is Form running entirely on the caller's Scratch: with a
// cached partition a serial steady-state call performs no
// allocations, which is the intended per-request serving path — one
// Scratch per worker goroutine, reused across requests. The returned
// Result is borrowed: its groups point into s and into the Engine's
// read-only partition, so it is valid only until s's next use and must
// not be written; callers that need to retain a Result across calls
// must copy it or use Form. The formed groups are byte-identical to
// Form's.
//
//gfvet:zeroalloc
func (e *Engine) FormInto(ctx context.Context, cfg core.Config, s *core.Scratch) (*core.Result, error) {
	if s == nil {
		return nil, gferr.BadConfigf("engine: FormInto requires a non-nil Scratch")
	}
	prefs, part, err := e.prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return core.FormPartitionInto(ctx, e.ds, cfg, prefs, part, s)
}

// BucketizeShard runs the scatter half of the distributed greedy
// pipeline on the bound dataset — an Engine serving one shard's
// resident slice (dataset.ShardUsers) answers the router's
// /shard/buckets call through here, reusing the same cached
// preference lists and partitions Form does. The returned pass is
// wire-safe: no slice aliases the caches or any scratch.
func (e *Engine) BucketizeShard(ctx context.Context, cfg core.Config) (*core.ShardPass, error) {
	prefs, part, err := e.prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return core.BucketizeShardWithPartition(ctx, e.ds, cfg, prefs, part)
}

// Solve runs any registered solver on the bound dataset. The greedy
// path ("grd" or an alias) is served from the preference-list cache;
// every other algorithm delegates to the registry unchanged, so one
// Engine value can drive a whole algorithm sweep.
func (e *Engine) Solve(ctx context.Context, algo string, cfg core.Config, opts ...Option) (*core.Result, error) {
	s, err := New(algo, opts...)
	if err != nil {
		return nil, err
	}
	rs, ok := s.(*regSolver)
	if !ok || rs.e.name != "grd" {
		return s.Solve(ctx, e.ds, cfg)
	}
	return rs.solveVia(ctx, e.ds, cfg,
		func(ctx context.Context, _ *dataset.Dataset, cfg core.Config, _ *settings) (*core.Result, error) {
			return e.Form(ctx, cfg)
		})
}
