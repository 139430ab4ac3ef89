// Package core implements the paper's primary contribution: the
// greedy recommendation-aware group-formation algorithms GRD-LM-MIN,
// GRD-LM-MAX, GRD-LM-SUM (Section 4, Algorithm 1) and GRD-AV-MIN,
// GRD-AV-MAX, GRD-AV-SUM (Section 5).
//
// All six share one framework:
//
//  1. Build each user's top-k preference list (O(nk) given sorted
//     ratings).
//  2. Hash users into intermediate groups ("buckets") keyed by their
//     top-k item sequence plus — depending on semantics and
//     aggregation — some of the scores:
//     LM-MIN: sequence + k-th score (Algorithm 1 line 3);
//     LM-MAX: top-1 item + its score (only the top item's LM score
//     matters for Max aggregation; see appendKey);
//     LM-SUM: sequence + all k scores;
//     AV-*:   sequence only (Section 5: grouping on scores "is not a
//     useful operation for AV semantics").
//  3. Select the l-1 best buckets by the bucket's group satisfaction
//     (internal/selection's k-bounded kernel).
//  4. Merge every remaining user into the l-th group and compute its
//     top-k list from scratch under the semantics. The group is one
//     pass over the users' bucket assignment, ascending with no sort,
//     and when the selected buckets hold fewer ratings than it does,
//     its top-k is scored by its complement: the dataset's per-item
//     rating-level counts minus the selected members' ratings
//     (semantics.Scorer.ComplementTopKInto), the same bits as the
//     forward pass at a fraction of its cost.
//
// For a bucket, the shared top-k sequence is provably a valid group
// top-k list under either semantics (each member ranks every outside
// item no higher than their own k-th item, and min/sum preserve the
// shared within-list order), so satisfaction of the first l-1 groups
// is computed directly from the bucket scores. Only the merged l-th
// group requires a full top-k computation, which is what limits the
// absolute error to rmax (Min/Max) or k*rmax (Sum) under LM
// (Theorems 2 and 3).
//
// Ties are broken deterministically — higher satisfaction, then
// larger bucket, then lexicographically smaller key — which
// reproduces the paper's worked Examples 1, 2 and 5 exactly.
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/par"
	"groupform/internal/rank"
	"groupform/internal/selection"
	"groupform/internal/semantics"
)

// Config parameterizes a group-formation run.
type Config struct {
	// K is the length of the recommended item list per group.
	K int
	// L is the maximum number of groups to form (l in the paper).
	L int
	// Semantics is the group recommendation semantics (LM or AV).
	Semantics semantics.Semantics
	// Aggregation is the satisfaction aggregation over the top-k
	// list (Max, Min, Sum, or a weighted variant).
	Aggregation semantics.Aggregation
	// Missing is the score imputed for unrated (user, item) pairs;
	// see semantics.Scorer. It must be finite; zero is the
	// conservative default.
	Missing float64
	// UserWeights optionally weights users under AV semantics
	// (Section 9's "members are not treated equally" direction); nil
	// or missing entries mean weight 1. Weights must be finite and
	// non-negative. LM is unaffected by weights.
	UserWeights map[dataset.UserID]float64
	// Anytime opts into graceful degradation: when the context expires
	// mid-run, solvers that hold a feasible incumbent — GRD's
	// completed groups, branch-and-bound's best leaf, local search's
	// best restart, the exact DP's completed level — return it with
	// Result.Partial set (a quality certificate) instead of discarding
	// the work with an ErrCanceled error. When no feasible incumbent
	// exists yet, the cancellation error is returned exactly as
	// before. Off by default: exact-or-error.
	Anytime bool
	// QualityTarget, in (0, 1], lets bound-maintaining solvers stop
	// early: as soon as the incumbent objective reaches QualityTarget
	// times the solver's admissible upper bound on the optimum, the
	// incumbent is returned with its certificate in Result.Partial.
	// Zero disables early stopping. Requires Anytime; the single-pass
	// greedy algorithms ignore the target (they cannot stop "early")
	// but still honor Anytime on cancellation.
	QualityTarget float64
	// Workers sets the parallelism of the formation pipeline: 0 or 1
	// selects the single-threaded reference path, N >= 2 runs
	// preference-list construction, the finalization of the bucket
	// groups and pieces, and the merged group's forward top-k over N
	// workers, and a negative value uses runtime.GOMAXPROCS(0).
	// Bucketizing is one serial pass at every worker count, so Workers
	// never changes a bucket's scores. The output is byte-identical to
	// the serial path for every worker count — unconditionally under
	// LM, and under AV whenever every weight*rating is exactly
	// representable (any dyadic rating scale; the merged group's
	// chunked accumulation reassociates AV sums, which gives the same
	// bits for every worker count >= 2 but can drift from serial in
	// the last ulp — see semantics.Scorer.Workers and
	// docs/ARCHITECTURE.md for the full determinism argument).
	Workers int
}

// EffectiveWorkers resolves Workers to an effective pool size (>= 1):
// 0 and 1 mean serial, negative means runtime.GOMAXPROCS(0).
func (c Config) EffectiveWorkers() int {
	if c.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.Workers == 0 {
		return 1
	}
	return c.Workers
}

// Validate reports whether the configuration is usable against ds.
// Every violation wraps gferr.ErrBadConfig and names the offending
// field.
func (c Config) Validate(ds *dataset.Dataset) error {
	if ds == nil || ds.NumUsers() == 0 {
		return gferr.BadConfigf("core: Dataset must be non-empty")
	}
	if err := c.validateParams(); err != nil {
		return err
	}
	if c.K > ds.NumItems() {
		return gferr.BadConfigf("core: K=%d exceeds item count %d", c.K, ds.NumItems())
	}
	return nil
}

// validateParams is Validate without a Dataset: FinalizeMerged runs
// where no ratings are (the router), so the dataset-dependent checks
// happen on the shards instead.
func (c Config) validateParams() error {
	if c.K <= 0 {
		return gferr.BadConfigf("core: K must be positive, got %d", c.K)
	}
	if c.L <= 0 {
		return gferr.BadConfigf("core: L must be positive, got %d", c.L)
	}
	if !c.Semantics.Valid() {
		return gferr.BadConfigf("core: Semantics %d is not LM or AV", int(c.Semantics))
	}
	if !c.Aggregation.Valid() {
		return gferr.BadConfigf("core: Aggregation %d is unknown", int(c.Aggregation))
	}
	if math.IsNaN(c.Missing) || math.IsInf(c.Missing, 0) {
		return gferr.BadConfigf("core: Missing must be finite, got %v", c.Missing)
	}
	for u, w := range c.UserWeights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return gferr.BadConfigf("core: UserWeights[%d] must be finite and non-negative, got %v", u, w)
		}
	}
	if !(c.QualityTarget >= 0 && c.QualityTarget <= 1) {
		return gferr.BadConfigf("core: QualityTarget must be in [0, 1], got %v", c.QualityTarget)
	}
	if c.QualityTarget > 0 && !c.Anytime {
		return gferr.BadConfigf("core: QualityTarget requires Anytime")
	}
	return nil
}

// scorer builds the semantics scorer for this configuration. The
// scorer inherits the configured worker pool, so the merged l-th
// group's top-k computation — the one full-membership pass the greedy
// framework cannot avoid — parallelizes with the rest of the
// pipeline.
func (c Config) scorer(ds *dataset.Dataset) semantics.Scorer {
	return semantics.Scorer{DS: ds, Missing: c.Missing, Weights: c.UserWeights, Workers: c.EffectiveWorkers()}
}

// weight returns u's AV weight under this configuration.
func (c Config) weight(u dataset.UserID) float64 {
	if c.UserWeights == nil {
		return 1
	}
	if w, ok := c.UserWeights[u]; ok {
		return w
	}
	return 1
}

// grdNames precomputes the algorithm names of every valid
// (semantics, aggregation) pair, keeping AlgorithmName off fmt on the
// zero-allocation steady-state path.
var grdNames = func() (t [2][5]string) {
	for s := range t {
		for a := range t[s] {
			t[s][a] = fmt.Sprintf("GRD-%s-%s", semantics.Semantics(s), semantics.Aggregation(a))
		}
	}
	return
}()

// AlgorithmName returns the paper's name for the greedy algorithm this
// configuration selects, e.g. "GRD-LM-MIN".
func (c Config) AlgorithmName() string {
	if c.Semantics.Valid() && c.Aggregation.Valid() {
		return grdNames[c.Semantics][c.Aggregation]
	}
	return fmt.Sprintf("GRD-%s-%s", c.Semantics, c.Aggregation)
}

// Group is one formed group together with its recommended top-k list.
type Group struct {
	// Members holds the user IDs in the group, ascending.
	Members []dataset.UserID
	// Items is the recommended top-k list I_g^k, best first.
	Items []dataset.ItemID
	// ItemScores[j] is sc(g, Items[j]) under the run's semantics.
	ItemScores []float64
	// Satisfaction is gs(I_g^k) under the run's aggregation.
	Satisfaction float64
	// Merged marks the l-th group assembled from leftover users.
	Merged bool
}

// Size returns the number of members.
func (g Group) Size() int { return len(g.Members) }

// Partial is the quality certificate attached to a degraded
// (anytime) result: the solver stopped before proving completion —
// the deadline fired, a resource budget ran out, or the configured
// QualityTarget was reached — and returned its best-so-far incumbent
// instead. The certificate makes the trade legible: how good the
// returned result is guaranteed to be, and how much of the run
// finished.
type Partial struct {
	// Bound is an admissible upper bound on the optimum objective
	// (Bound >= OPT >= Objective for complete partitions); the
	// incumbent is therefore within Gap of optimal.
	Bound float64
	// Gap is Bound - Objective, the certificate's slack.
	Gap float64
	// Completed and Total count the solver's own progress units:
	// finalized groups out of planned groups (GRD), explored nodes
	// out of the node budget (branch-and-bound), completed restarts
	// out of configured restarts (local search), completed DP levels
	// out of min(L, n) (exact).
	Completed int
	Total     int
}

// Result is the outcome of a formation run.
type Result struct {
	// Groups are the formed groups in the order they were created
	// (best buckets first, merged remainder last).
	Groups []Group
	// Objective is the aggregated group satisfaction, the Obj of
	// Section 2.4.
	Objective float64
	// Buckets is the number of intermediate groups formed in step 1;
	// the paper observes AV produces fewer buckets than LM.
	Buckets int
	// Algorithm names the algorithm that produced the result.
	Algorithm string
	// Partial is non-nil when the run degraded under Config.Anytime
	// (or stopped early on Config.QualityTarget): Groups is a feasible
	// best-so-far incumbent rather than the run's complete output, and
	// Partial carries its quality certificate. Nil means the run
	// completed normally.
	Partial *Partial
}

// clone is the copy-out of a scratch-carved Result: Groups and Partial
// are copied, and every group's Members, Items and ItemScores are
// carved from one fresh array per slice kind, so the copy shares no
// memory with r.
func (r *Result) clone() *Result {
	out := *r
	if r.Partial != nil {
		p := *r.Partial
		out.Partial = &p
	}
	var nm, ni, ns int
	for _, g := range r.Groups {
		nm, ni, ns = nm+len(g.Members), ni+len(g.Items), ns+len(g.ItemScores)
	}
	members := make([]dataset.UserID, 0, nm)
	items := make([]dataset.ItemID, 0, ni)
	scores := make([]float64, 0, ns)
	out.Groups = make([]Group, len(r.Groups))
	for i, g := range r.Groups {
		g.Members = carve(&members, g.Members)
		g.Items = carve(&items, g.Items)
		g.ItemScores = carve(&scores, g.ItemScores)
		out.Groups[i] = g
	}
	return &out
}

// carve appends src to *dst, whose capacity the caller reserved, and
// returns the appended run with its capacity pinned; nil stays nil.
func carve[T any](dst *[]T, src []T) []T {
	if src == nil {
		return nil
	}
	lo := len(*dst)
	*dst = append(*dst, src...)
	return (*dst)[lo:len(*dst):len(*dst)]
}

// Form runs the greedy group-formation algorithm selected by cfg.
// With cfg.Workers >= 2 the preference lists, the finalization of the
// bucket groups and pieces, and the merged group's forward top-k run
// on a worker pool; bucketizing stays one serial pass, so the result
// is the serial path's (see Config.Workers for the one AV caveat).
// The context is checked between phases and every few thousand users
// inside them; cancellation returns an error wrapping
// gferr.ErrCanceled.
func Form(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error) {
	return FormWithPrefs(ctx, ds, cfg, nil)
}

// FormWithPrefs is Form with the O(nk) preference-list construction
// already done. prefs must be rank.AllTopK's output for (cfg.K,
// cfg.Missing) over ds, in dataset user order; nil builds the lists
// internally. Supplied lists are only read — buckets fold into copies
// of their score positions — so an Engine can serve many concurrent
// Forms from one cached slice. The run is FormInto on a pooled Scratch
// plus one copy-out, so everything reachable from the returned Result
// is caller-owned and shares no memory with prefs or the pool.
func FormWithPrefs(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList) (*Result, error) {
	return FormWithPartition(ctx, ds, cfg, prefs, nil)
}

// FormWithPartition is FormWithPrefs starting from part, cfg's cached
// bucketize pass over prefs (NewPartition), instead of bucketizing; a
// nil part bucketizes as FormWithPrefs does. The Result is copied out
// as FormWithPrefs's is, so it shares no memory with part either.
func FormWithPartition(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList, part *Partition) (*Result, error) {
	s := scratchPool.Get().(*Scratch)
	res, err := FormPartitionInto(ctx, ds, cfg, prefs, part, s)
	if err == nil {
		res = res.clone()
	}
	scratchPool.Put(s)
	return res, err
}

// FormInto is the solve behind FormWithPrefs, run entirely on the
// caller's Scratch: every buffer, including the Result and the arrays
// its Groups point into, is carved from s and reused by s's next run.
// The returned Result is therefore valid only until s is used again,
// and s must not be shared between goroutines. In steady state — same
// configuration shape, warm preference lists — a serial FormInto
// performs no allocations.
//
//gfvet:zeroalloc
func FormInto(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList, s *Scratch) (*Result, error) {
	return FormPartitionInto(ctx, ds, cfg, prefs, nil, s)
}

// FormPartitionInto is FormInto starting at the plan from part, cfg's
// cached bucketize pass over prefs (NewPartition), so the run skips
// step 1; a nil part bucketizes on s as FormInto does. This is the
// Engine's serving path. The Result's bucket groups read their lists,
// scores and members from part, which nothing writes, and everything
// else is carved from s: it is borrowed as FormInto's is. A part built
// for another kind, K, Missing or user count is ErrBadConfig.
//
//gfvet:zeroalloc
func FormPartitionInto(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList, part *Partition, s *Scratch) (*Result, error) {
	if s == nil {
		return nil, gferr.BadConfigf("core: FormInto requires a non-nil Scratch")
	}
	s.begin()
	return s.run(ctx, ds, cfg, prefs, part)
}

// run executes the greedy framework on the (already begun) scratch,
// from part when one is supplied.
//
//gfvet:zeroalloc
func (s *Scratch) run(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList, part *Partition) (*Result, error) {
	prefs, err := prepare(ctx, ds, cfg, prefs)
	if err != nil {
		return nil, err
	}
	p, err := s.usePartition(ds, cfg, prefs, part)
	if err != nil {
		return nil, err
	}
	if err := gferr.Ctx(ctx); err != nil {
		return nil, err
	}
	s.result = Result{Buckets: p.buckets(), Algorithm: cfg.AlgorithmName()}
	res := &s.result
	tasks := s.plan(p, cfg, ds.Users())
	if cap(s.groups) < len(tasks) {
		s.groups = make([]Group, len(tasks))
	}
	groups := s.groups[:len(tasks)]
	s.oracle = localOracle{sc: cfg.scorer(ds), s: s}
	// The serial path finalizes every group on the scratch's oracle;
	// the parallel path fans the bucket groups out first and leaves
	// the merged remainder to the same loop.
	done := 0
	if workers := cfg.EffectiveWorkers(); par.Enabled(workers) {
		done, err = s.fanOut(ctx, cfg, tasks, groups, workers)
	}
	if err == nil {
		for ; done < len(tasks); done++ {
			if groups[done], err = finalizeTask(ctx, cfg, tasks[done], &s.oracle); err != nil {
				break
			}
		}
	}
	// A scratch outlives its run (pools, leases); it must not pin ds.
	s.oracle = localOracle{}
	if err != nil {
		if dres, ok := degraded(res, groups[:done], err, prefs, cfg, len(tasks)); ok {
			return dres, nil
		}
		return nil, err
	}
	res.Groups = groups
	for _, g := range groups {
		res.Objective += g.Satisfaction
	}
	return res, nil
}

// prepare validates a run of cfg over ds and returns its preference
// lists: prefs itself when supplied, freshly built otherwise.
//
//gfvet:zeroalloc
func prepare(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList) ([]rank.PrefList, error) {
	if err := cfg.Validate(ds); err != nil {
		return nil, err
	}
	if err := gferr.Ctx(ctx); err != nil {
		return nil, err
	}
	if prefs == nil {
		return rank.AllTopKParallel(ctx, ds, cfg.K, cfg.Missing, cfg.EffectiveWorkers())
	}
	// The lists' missing-value imputation is not recoverable from the
	// lists themselves, so that part of the contract stays with the
	// caller (the Engine keys its cache by it); length mismatches — the
	// wrong dataset or lists built for another K — are cheap to catch
	// and would otherwise form wrong groups silently.
	if len(prefs) != ds.NumUsers() {
		//gfvet:allow hotpathalloc -- cold validation path; boxing only happens when the config is already wrong
		return nil, gferr.BadConfigf("core: prefs has %d lists for %d users", len(prefs), ds.NumUsers())
	}
	if len(prefs[0].Items) != cfg.K {
		//gfvet:allow hotpathalloc -- cold validation path; boxing only happens when the config is already wrong
		return nil, gferr.BadConfigf("core: prefs built for K=%d, cfg.K=%d", len(prefs[0].Items), cfg.K)
	}
	return prefs, nil
}

// groupTask is one group of a finalization plan.
type groupTask struct {
	// items and scores are the source bucket's list and folded scores;
	// nil for the merged remainder.
	items  []dataset.ItemID
	scores []float64
	// members are the group's users, ascending.
	members []dataset.UserID
	// refold marks a strict piece of a full-sequence bucket: it keeps
	// the bucket's list, rescored over its own members.
	refold bool
	// merged marks the l-th group: every bucket outside the L-1 best.
	merged bool
	// excluded lists, for a merged group planned from run()'s bucket
	// assignment, every other user's dataset index, ascending: the
	// complement the local oracle may score the group by.
	excluded []dataset.UserIdx
}

// rankedBucket is a bucket's index with what the plan's order reads:
// its aggregated satisfaction (the primary key), its size and its key.
type rankedBucket struct {
	sat  float64
	key  []byte
	size int32
	b    int32
}

// bucketAhead orders buckets by (satisfaction desc, size desc, key
// asc). The paper's Algorithm 1 keeps a heap of LM scores; ranking by
// the aggregated bucket satisfaction generalizes that to all six
// algorithm variants. Bucket keys are unique, so this is a strict
// total order and the selected prefix never depends on the input
// permutation.
func bucketAhead(a, b rankedBucket) bool {
	if a.sat != b.sat {
		return a.sat > b.sat
	}
	if a.size != b.size {
		return a.size > b.size
	}
	return bytes.Compare(a.key, b.key) < 0
}

// plan lays out steps 3 and 4 of the framework from the partition
// alone, without a rating probe, and returns every group in output
// order. It only reads p, whose members are ascending within each
// bucket, so one cached partition serves any number of plans.
//
// With more buckets than L, the L-1 best buckets in bucketAhead order
// are groups of their own and every remaining member joins the merged
// l-th group, listed last; only those L-1 are ordered. When p carries
// an assignment, users is run()'s user table and p.assign[r] indexes
// users[r]'s bucket: the remainder is one pass over the assignment
// that skips the selected buckets (flagged in the scratch), ascending
// with no sort, and the same pass lists the excluded users for the
// complement top-k. FinalizeMerged's partition has no assignment: its
// remainder concatenates the other buckets' members and sorts them.
//
// Otherwise every bucket becomes final, all of them in bucketAhead
// order, and, because the objective only grows with the number of
// groups (Section 4.1, step 2), the L - len(buckets) surplus groups go,
// one at a time, to the best bucket that can still be split. Splitting
// preserves each piece's satisfaction under LM (members are
// indistinguishable w.r.t. the aggregated score) and is neutral under
// AV (bucket satisfaction is additive over members), so splitting the
// best buckets first is optimal given the bucketing — and is required
// for the rmax absolute-error guarantee of Theorem 2 when l exceeds
// the bucket count. Pieces are contiguous, near-even cuts (par.Range)
// of the bucket's members; the cuts depend on the bucket sizes alone,
// so every worker count finalizes the same plan.
//
//gfvet:zeroalloc
func (s *Scratch) plan(p *Partition, cfg Config, users []dataset.UserID) []groupTask {
	nb := p.buckets()
	ranked := slices.Grow(s.ranked[:0], nb)
	for b := range nb {
		_, scores := p.list(b)
		ranked = append(ranked, rankedBucket{
			sat:  cfg.Aggregation.Aggregate(scores),
			key:  p.key(b),
			size: p.offs[b+1] - p.offs[b],
			b:    int32(b),
		})
	}
	s.ranked = ranked
	tasks := s.tasks[:0]
	if nb > cfg.L {
		best := selection.TopK(ranked, cfg.L-1, bucketAhead)
		if len(s.selected) < nb {
			s.selected = make([]bool, nb)
		}
		selected := s.selected
		for _, r := range ranked[:best] {
			selected[r.b] = true
			items, scores := p.list(int(r.b))
			tasks = append(tasks, groupTask{items: items, scores: scores, members: p.membersOf(int(r.b))})
		}
		rest, excl := s.rest[:0], s.excl[:0]
		if p.assign != nil {
			// The two lists split the users; a cold scratch reserves
			// both whole rather than growing them in steps.
			rest, excl = slices.Grow(rest, len(p.assign)), slices.Grow(excl, len(p.assign))
			for r, b := range p.assign {
				if selected[b] {
					excl = append(excl, dataset.UserIdx(r))
				} else {
					rest = append(rest, users[r])
				}
			}
		} else {
			for _, r := range ranked[best:] {
				rest = append(rest, p.membersOf(int(r.b))...)
			}
			sortUsers(rest)
		}
		for _, r := range ranked[:best] {
			selected[r.b] = false
		}
		s.rest, s.excl = rest, excl
		tasks = append(tasks, groupTask{members: rest, merged: true, excluded: excl})
	} else {
		selection.TopK(ranked, len(ranked), bucketAhead)
		surplus := cfg.L - nb
		for _, r := range ranked {
			items, scores := p.list(int(r.b))
			members := p.membersOf(int(r.b))
			n := len(members)
			parts := 1 + min(surplus, n-1)
			surplus -= parts - 1
			for part := 0; part < parts; part++ {
				lo, hi := par.Range(n, parts, part)
				tasks = append(tasks, groupTask{
					items:   items,
					scores:  scores,
					members: members[lo:hi],
					refold:  parts > 1 && len(items) == cfg.K,
				})
			}
		}
	}
	s.tasks = tasks
	return tasks
}

// finalizeTask turns one planned group into a Group, asking o for what
// the plan cannot know without ratings. A whole bucket keeps its
// shared top-k sequence and maintained scores (a valid group list
// under either semantics; see the package comment). A strict piece of
// a full-sequence bucket keeps the list rescored over its own members:
// LM minima can only rise and AV sums shrink to the piece. An LM-MAX
// bucket stores only its (top item, score) pair, so its list — like
// the merged remainder's — comes from a full top-k, which cannot
// change the Max-aggregated satisfaction.
//
//gfvet:zeroalloc
func finalizeTask(ctx context.Context, cfg Config, t groupTask, o ScoreOracle) (Group, error) {
	if err := gferr.Ctx(ctx); err != nil {
		return Group{}, err
	}
	g := Group{Members: t.members, Merged: t.merged}
	var err error
	switch {
	case t.refold:
		g.Items = t.items
		g.ItemScores, err = o.GroupScores(ctx, cfg.Semantics, t.members, t.items)
	case t.merged:
		g.Items, g.ItemScores, err = mergedTopK(ctx, cfg, t, o)
	case len(t.items) < cfg.K:
		g.Items, g.ItemScores, err = o.GroupTopK(ctx, cfg.Semantics, t.members, cfg.K)
	default:
		g.Items, g.ItemScores = t.items, t.scores
	}
	if err != nil {
		return Group{}, err
	}
	g.Satisfaction = cfg.Aggregation.Aggregate(g.ItemScores)
	return g, nil
}

// fanOut finalizes the planned bucket groups on the worker pool. Each
// task writes only its own index and answers through a scratch-free
// copy of s.oracle — the tasks must not share the scratch's single
// top-k buffer and arenas — whose scorer follows nestedScorer. A
// merged remainder, planned last, is left to the caller. It returns
// how many leading groups finalized and the first error.
func (s *Scratch) fanOut(ctx context.Context, cfg Config, tasks []groupTask, groups []Group, workers int) (int, error) {
	n := len(tasks)
	if tasks[n-1].merged {
		n--
	}
	errs := s.errSlice(n)
	o := &localOracle{sc: nestedScorer(s.oracle.sc, n, workers)}
	par.Do(n, workers, func(i int) {
		groups[i], errs[i] = finalizeTask(ctx, cfg, tasks[i], o)
	})
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return n, nil
}

// degraded assembles the anytime certificate over the completed
// groups when the run was cut short by cancellation. It applies only
// when cfg.Anytime is set, err is a cancellation (not a real
// failure), and at least one group finished — otherwise ok is false
// and the caller propagates err as before. Cold path: it runs at most
// once per canceled request and may allocate.
func degraded(res *Result, groups []Group, err error, prefs []rank.PrefList, cfg Config, total int) (*Result, bool) {
	if !cfg.Anytime || !errors.Is(err, gferr.ErrCanceled) || len(groups) == 0 {
		return nil, false
	}
	res.Groups = groups
	res.Objective = 0
	for _, g := range groups {
		res.Objective += g.Satisfaction
	}
	bound := anytimeBound(prefs, cfg)
	res.Partial = &Partial{Bound: bound, Gap: bound - res.Objective, Completed: len(groups), Total: total}
	return res, true
}

// anytimeBound is the admissible upper bound on the optimum objective
// over the whole population: CombineBounds over its one contribution.
// It reads the preference lists alone, so it stays callable after the
// deadline has fired.
func anytimeBound(prefs []rank.PrefList, cfg Config) float64 {
	return CombineBounds([]float64{BoundContribution(prefs, cfg)}, len(prefs), cfg)
}

// nestedScorer decides whether scorer calls made from inside an
// outer fan-out of `tasks` tasks keep their own parallelism: when the
// outer fan-out alone fills the pool, the nested scorer goes serial
// (nested goroutines would only add scheduling overhead); when there
// are fewer tasks than workers — one dominant bucket, a tiny L — the
// nested scorer keeps the pool, so a lone full top-k computation
// still parallelizes. Determinism is unaffected either way: the only
// scorer work reachable from bucket finalization is the LM-MAX list
// completion, and the chunked accumulation is unconditionally
// bit-exact under LM.
func nestedScorer(scorer semantics.Scorer, tasks, workers int) semantics.Scorer {
	if tasks >= workers {
		scorer.Workers = 1
	}
	return scorer
}

// localOracle answers the finalizer's probes from the in-process
// dataset behind sc. With a scratch (run()'s serial path and merged
// remainder) the answers are carved from the scratch's top-k buffer
// and arenas, allocation-free once warm; without one (fan-out tasks,
// LocalOracle) they are freshly allocated. It does not poll ctx: the
// finalizer polls between groups.
type localOracle struct {
	sc semantics.Scorer
	s  *Scratch
}

// GroupScores rescores items over members in index space: both resolve
// to dense indices once, and every probe after that is a binary search
// over a CSR row (semantics.Scorer.ItemScoreIdx, which scores through
// the same ItemStats formula as the router's gather oracle).
//
//gfvet:zeroalloc
func (o *localOracle) GroupScores(_ context.Context, sem semantics.Semantics, members []dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	var midx []dataset.UserIdx
	if o.s != nil {
		if cap(o.s.midx) < len(members) {
			o.s.midx = make([]dataset.UserIdx, len(members))
		}
		midx = o.s.midx[:len(members)]
	} else {
		midx = make([]dataset.UserIdx, len(members))
	}
	//gfvet:allow ctxcadence -- one index lookup per member of a single group; the finalizer polls between groups
	for i, u := range members {
		r, ok := o.sc.DS.UserIdxOf(u)
		if !ok {
			//gfvet:allow hotpathalloc -- cold validation path; boxing only happens when the input is already wrong
			return nil, gferr.BadConfigf("core: group member %d is not in the dataset", u)
		}
		midx[i] = r
	}
	scores := o.s.takeScores(len(items))
	//gfvet:allow ctxcadence -- one probe per listed item (K of them); the finalizer polls between groups
	for j, it := range items {
		ij, ok := o.sc.DS.ItemIdxOf(it)
		if !ok {
			//gfvet:allow hotpathalloc -- cold validation path; boxing only happens when the input is already wrong
			return nil, gferr.BadConfigf("core: group item %d is not in the dataset", it)
		}
		scores[j] = o.sc.ItemScoreIdx(sem, midx, ij)
	}
	return scores, nil
}

// GroupTopK is the full top-k computation over members.
//
//gfvet:zeroalloc
func (o *localOracle) GroupTopK(_ context.Context, sem semantics.Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error) {
	if o.s == nil {
		return o.sc.TopK(sem, members, k)
	}
	items, scores, err := o.sc.TopKInto(sem, members, k, &o.s.topk)
	if err != nil {
		return nil, nil, err
	}
	return o.s.itemArena.copyIn(items), o.s.scoreArena.copyIn(scores), nil
}

// mergedTopK computes the merged remainder t's top-k. The run's own
// local oracle scores it by its complement when plan read t off the
// run's assignment (t.excluded then lists every other user) and
// complementCheaper picks it; every other oracle, and every other
// case, answers GroupTopK. Both paths give the same bits
// (semantics.Scorer.ComplementTopKInto).
//
//gfvet:zeroalloc
func mergedTopK(ctx context.Context, cfg Config, t groupTask, o ScoreOracle) ([]dataset.ItemID, []float64, error) {
	if lo, ok := o.(*localOracle); ok && lo.s != nil {
		ds := lo.sc.DS
		if len(t.members)+len(t.excluded) == ds.NumUsers() && complementCheaper(ds, t.excluded) {
			if items, scores, ok := lo.sc.ComplementTopKInto(cfg.Semantics, t.excluded, cfg.K, &lo.s.topk); ok {
				return lo.s.itemArena.copyIn(items), lo.s.scoreArena.copyIn(scores), nil
			}
		}
	}
	return o.GroupTopK(ctx, cfg.Semantics, t.members, cfg.K)
}

// complementCheaper is the cost rule between the merged group's two
// top-k paths: the complement folds the excluded users' ratings and
// then reads the items×levels table, the forward pass folds every
// rating of the remainder. On a sparse catalog at small L the
// remainder is nearly everyone and the complement wins by an order of
// magnitude; on a clustered catalog at large L the remainder is a
// minority and the forward pass wins.
func complementCheaper(ds *dataset.Dataset, excluded []dataset.UserIdx) bool {
	lv := ds.Levels()
	if lv == nil {
		return false
	}
	ex := 0
	for _, r := range excluded {
		cols, _ := ds.RowIdx(r)
		ex += len(cols)
	}
	return ex+ds.NumItems()*len(lv.Values()) < ds.NumRatings()-ex
}

// takeScores returns a length-n score buffer: carved from the score
// arena when a scratch is available, heap-allocated from the parallel
// fan-outs that must not share the scratch (the same nil convention
// localOracle uses).
//
//gfvet:zeroalloc
func (s *Scratch) takeScores(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return s.scoreArena.take(n)
}

// foldBucketMember folds a joining member's scores into the bucket's
// stored positions (LM-MAX buckets store a single position): min for
// LM, weighted sum for AV. bucketize runs it for every member after a
// bucket's first, in preference-list order, so an AV position is the
// left-to-right sum over the members in ascending user order at every
// worker count; BucketizeShard runs the same pass over its slice.
func foldBucketMember(scores []float64, p rank.PrefList, cfg Config) {
	switch cfg.Semantics {
	case semantics.LM:
		for j := range scores {
			if s := p.Scores[j]; s < scores[j] {
				scores[j] = s
			}
		}
	case semantics.AV:
		w := cfg.weight(p.User)
		for j := range scores {
			scores[j] += w * p.Scores[j]
		}
	}
}

// appendKey encodes the hashing key for a preference list under cfg.
// Item IDs are encoded big-endian so that lexicographic byte order
// matches numeric order, keeping tie-breaking deterministic and
// explainable.
//
// Under LM with Max aggregation, only the top item's LM score
// determines satisfaction, so the key is just (top-1 item, top
// score): every member rates the shared favorite at their personal
// maximum, making the group's best LM score exactly that shared
// rating, while all other items score no higher. Hashing the full
// sequence would needlessly fragment the buckets (the mirror image of
// Example 3's argument for why MIN must hash the full sequence).
func appendKey(buf []byte, p rank.PrefList, cfg Config) []byte {
	if cfg.Semantics == semantics.LM && cfg.Aggregation == semantics.Max {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Items[0]))
		return appendScore(buf, p.Scores[0])
	}
	for _, it := range p.Items {
		buf = binary.BigEndian.AppendUint32(buf, uint32(it))
	}
	if cfg.Semantics == semantics.AV {
		return buf // sequence only, for every aggregation (Section 5)
	}
	switch cfg.Aggregation {
	case semantics.Min:
		buf = appendScore(buf, p.Scores[len(p.Scores)-1])
	default: // Sum and weighted variants need every score to match
		for _, s := range p.Scores {
			buf = appendScore(buf, s)
		}
	}
	return buf
}

func appendScore(buf []byte, s float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(s))
}

func sortUsers(us []dataset.UserID) {
	slices.Sort(us)
}
