package server

import (
	"fmt"
	"sort"
	"sync"

	"groupform/internal/dataset"
	"groupform/internal/metrics"
	"groupform/internal/solver"
)

// dsEntry is one registry slot: the engine currently serving a
// dataset name plus the per-name instrumentation. The entry — and
// with it the request counter — survives engine hot-swaps: the
// counter belongs to the dataset name, not to any one engine
// generation, so GET /metrics reports continuous per-dataset traffic
// across uploads, upserts and compactions.
type dsEntry struct {
	eng *solver.Engine // guarded by Registry.mu; the counter is atomic
	// requests counts solve/upsert requests resolved against this
	// name, exported as groupform_dataset_requests_total.
	requests metrics.Counter
}

// Registry maps dataset names to the Engine serving them, with
// atomic hot-swap: Swap publishes a fresh Engine under the write
// lock, lookups take the read lock only long enough to fetch the
// pointer, and in-flight requests keep solving on whatever Engine
// they resolved — an Engine is immutable once published (its dataset
// is immutable and its preference-list cache is internally
// synchronized), so a swapped-out engine stays fully usable until
// the last request holding it returns and the GC collects it. There
// is deliberately no delete: a serving tier replaces datasets, it
// does not un-serve them mid-traffic.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*dsEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*dsEntry)}
}

// entry resolves name to its registry slot and the engine currently
// published there (read under one lock hold, so the pair is
// consistent). The empty name is a convenience that resolves iff
// exactly one dataset is loaded, so single-catalog deployments can
// omit the field entirely. Unknown names report ok = false with the
// resolved name echoed back.
func (r *Registry) entry(name string) (e *dsEntry, eng *solver.Engine, resolved string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.entries) != 1 {
			return nil, nil, "", false
		}
		for n, e := range r.entries {
			return e, e.eng, n, true
		}
	}
	e, ok = r.entries[name]
	if !ok {
		return nil, nil, name, false
	}
	return e, e.eng, name, true
}

// entryWire is entry's allocation-free twin for the binary wire
// path: the name arrives as bytes aliasing the request frame, and
// the compiler turns the m[string(name)] lookup into a no-copy
// probe. resolved is non-empty only when the empty-name convenience
// picked the dataset — for a named lookup the caller already holds
// the bytes.
//
//gfvet:zeroalloc
func (r *Registry) entryWire(name []byte) (e *dsEntry, eng *solver.Engine, resolved string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(name) == 0 {
		if len(r.entries) != 1 {
			return nil, nil, "", false
		}
		for n, e := range r.entries {
			return e, e.eng, n, true
		}
	}
	e, ok = r.entries[string(name)]
	if !ok {
		return nil, nil, "", false
	}
	return e, e.eng, "", true
}

// Get resolves name to its current engine (see entry for the
// empty-name convenience).
func (r *Registry) Get(name string) (eng *solver.Engine, resolved string, ok bool) {
	_, eng, resolved, ok = r.entry(name)
	return eng, resolved, ok
}

// Swap atomically publishes eng as the engine for name, returning
// whether an earlier engine was replaced. Requests already holding
// the old engine finish on it; every later Get sees the new one. The
// slot's request counter carries across the swap.
func (r *Registry) Swap(name string, eng *solver.Engine) (replaced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		e.eng = eng
		return true
	}
	r.entries[name] = &dsEntry{eng: eng}
	return false
}

// Add builds an engine for ds and publishes it under name; the
// programmatic (boot-time) twin of the upload endpoint.
func (r *Registry) Add(name string, ds *dataset.Dataset) error {
	if err := validDatasetName(name); err != nil {
		return err
	}
	eng, err := solver.NewEngine(ds)
	if err != nil {
		return err
	}
	r.Swap(name, eng)
	return nil
}

// Names returns the loaded dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Infos snapshots per-dataset sizes for GET /datasets.
func (r *Registry) Infos() map[string]DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]DatasetInfo, len(r.entries))
	for n, e := range r.entries {
		ds := e.eng.Dataset()
		out[n] = DatasetInfo{Users: ds.NumUsers(), Items: ds.NumItems(), Ratings: ds.NumRatings()}
	}
	return out
}

// datasetCount is one dataset's request count and engine cache
// counters for GET /metrics.
type datasetCount struct {
	name     string
	requests int64
	cache    solver.EngineStats
}

// requestCounts snapshots the per-dataset request counters and the
// cache counters of the engine serving each name, sorted by name for
// stable exposition output.
func (r *Registry) requestCounts() []datasetCount {
	r.mu.RLock()
	out := make([]datasetCount, 0, len(r.entries))
	for n, e := range r.entries {
		out = append(out, datasetCount{name: n, requests: e.requests.Value(), cache: e.eng.Stats()})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// notFoundMsg renders the 404 detail for an unresolved dataset name.
func notFoundMsg(name string, known []string) string {
	if name == "" {
		return fmt.Sprintf("server: request names no dataset and %d are loaded (known: %v)", len(known), known)
	}
	return fmt.Sprintf("server: unknown dataset %q (known: %v)", name, known)
}
