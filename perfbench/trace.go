package main

import (
	"cmp"
	"context"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/semantics"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's start; Parent is -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. It is safe
// for concurrent use.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int32) int32 {
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span and returns its id.
func (t *tracer) record(name string, parent, req int32, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its children cover. Children may overlap each
// other (parallel calls) or stick out of the parent; only the union
// of their intervals clipped to the parent counts.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals
// within [lo, hi].
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTotals sums, per span name, the self time and the whole
// duration (both ns) over spans.
func layerTotals(spans []span) (self, total map[string]int64) {
	st := selfTimes(spans)
	self, total = map[string]int64{}, map[string]int64{}
	for i, s := range spans {
		self[s.Name] += st[i]
		total[s.Name] += s.End - s.Start
	}
	return self, total
}

// timingOracle is core.LocalOracle with a span around every probe, so
// FinalizeMerged's own time can be told apart from the scoring it
// asks for.
type timingOracle struct {
	inner       core.LocalOracle
	tr          *tracer
	parent, req int32
	// topkMembers counts the members every GroupTopK call scored.
	topkMembers int
}

func (o *timingOracle) GroupScores(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	id := o.tr.begin("semantics.scores", o.parent, o.req)
	defer o.tr.end(id)
	return o.inner.GroupScores(ctx, sem, members, items)
}

func (o *timingOracle) GroupTopK(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error) {
	id := o.tr.begin("semantics.topk", o.parent, o.req)
	defer o.tr.end(id)
	o.topkMembers += len(members)
	return o.inner.GroupTopK(ctx, sem, members, k)
}
