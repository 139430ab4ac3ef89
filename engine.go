package groupform

import (
	"groupform/internal/core"
	"groupform/internal/solver"
)

// Engine binds a Dataset once and amortizes the expensive shared
// per-dataset work across solves: the O(nk) preference-list
// construction is cached per (K, Missing) pair, and beside it the
// bucketize pass per hashing-key kind (filled by the second request
// for it), so repeated Engine.Form calls with different L skip
// straight to the plan. An Engine is safe for concurrent use and
// its results are byte-identical to the one-shot path; this is the
// intended serving-path entry point when one catalog answers many
// formation requests.
//
//	eng, err := groupform.NewEngine(ds)
//	res, err := eng.Form(ctx, groupform.Config{K: 5, L: 10,
//		Semantics: groupform.LM, Aggregation: groupform.Min})
//	res2, err := eng.Form(ctx, cfg2) // reuses the cached lists (and, from the second call of a kind, its buckets)
//
// Engine.Solve runs any registered solver ("ls", "exact", ...) on the
// bound dataset, serving the greedy path from the cache.
type Engine = solver.Engine

// EngineStats counts an Engine's cache activity (builds vs hits).
type EngineStats = solver.EngineStats

// NewEngine binds ds to a new Engine. The dataset must be non-empty.
func NewEngine(ds *Dataset) (*Engine, error) { return solver.NewEngine(ds) }

// Scratch owns the reusable buffers of Engine.FormInto's zero-alloc
// serving path. A Scratch is single-goroutine state: keep one per
// worker, reuse it across requests, and treat each returned Result as
// borrowed from the scratch (and the Engine's read-only bucket
// partition) — valid only until its next use, never to be written. See
// docs/API.md ("Into variants and buffer ownership").
type Scratch = core.Scratch

// NewScratch returns an empty Scratch ready for Engine.FormInto.
func NewScratch() *Scratch { return core.NewScratch() }
