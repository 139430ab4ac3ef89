package core

import (
	"context"
	"errors"
	"math"
	"slices"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/rank"
	"groupform/internal/semantics"
)

// This file is the distributed face of the greedy framework: run()'s
// single bucketize pass and its finalization, split at the point
// where GRD is naturally partitionable over users. A shard bucketizes
// its resident slice (BucketizeShard), the router merges the
// per-shard buckets (MergeShardBuckets), and finalization runs run()'s
// own plan and per-group finalizer with every rating probe routed back
// through a ScoreOracle — locally for tests, over HTTP fan-out in
// internal/shard. MergeShardBuckets is the only code that merges
// buckets built over separate user ranges; run() never splits its
// pass.
//
// Parity contract (pinned by TestShardedFormParity,
// TestShardedFormParitySplitBranch and the internal/shard router
// tests): with contiguous ascending user shards
// (dataset.ShardUsers), the merged result is byte-identical to
// Form(ds, cfg) under LM for every shard count — min is associative
// and the merge keeps the first minimum, as the serial fold does.
// Under AV the bucket scores and group sums reassociate the serial
// member order into per-shard partials, so equality holds up to float
// summation reassociation (exactly representable rating scales — the
// paper's integer stars — stay byte-identical in practice); see
// docs/ARCHITECTURE.md, "The scatter-gather tier".

// ShardBucket is one intermediate group as it crosses the wire: the
// bucket key (opaque bytes, compared for equality only; base64 in
// JSON), the shared item list with the scores folded over this shard's
// members, and the resident members in preference-list (ascending
// user) order. Its JSON encoding is the /shard/buckets wire record.
type ShardBucket struct {
	Key     []byte           `json:"key"`
	Items   []dataset.ItemID `json:"items"`
	Scores  []float64        `json:"scores"`
	Members []dataset.UserID `json:"members"`
}

// ShardPass is one shard's complete bucketize output plus the
// shard-local ingredients of the anytime certificate: Users counts
// the residents, Bound is this sub-population's CombineBounds
// component.
type ShardPass struct {
	Buckets []ShardBucket
	Users   int
	Bound   float64
}

// BucketizeShard runs step 1 of the greedy framework over ds — one
// shard's resident slice — and returns the buckets in wire-safe form:
// every slice freshly allocated (capacity pinned, so an append never
// reaches a neighbor), nothing aliasing pref-list caches or scratch
// arenas. prefs follows the FormWithPrefs contract (shared,
// read-only, built for (cfg.K, cfg.Missing) over ds in user order);
// nil builds the lists internally. The pass is run()'s own serial
// bucketize at every cfg.Workers, so each bucket's scores fold the
// shard's members in ascending user order: LM keeps the first minimum,
// AV sums left to right.
func BucketizeShard(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList) (*ShardPass, error) {
	return BucketizeShardWithPartition(ctx, ds, cfg, prefs, nil)
}

// BucketizeShardWithPartition is BucketizeShard copying its buckets
// out of part, cfg's cached pass over prefs (NewPartition), instead of
// bucketizing; a nil part bucketizes on a pooled scratch.
func BucketizeShardWithPartition(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList, part *Partition) (*ShardPass, error) {
	prefs, err := prepare(ctx, ds, cfg, prefs)
	if err != nil {
		return nil, err
	}
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	p, err := s.usePartition(ds, cfg, prefs, part)
	if err != nil {
		return nil, err
	}
	// The wire-safe copies are one fresh array per slice kind, as
	// Result.clone does, so a pass costs a handful of allocations
	// whatever its bucket count.
	keys, items, scores, members := slices.Clone(p.keys), slices.Clone(p.items), slices.Clone(p.scores), slices.Clone(p.members)
	out := make([]ShardBucket, p.buckets())
	for b := range out {
		// The copies can add up to the whole slice's ratings; keep the
		// bucketize cadence through the copy-out.
		if err := gferr.Ctx(ctx); err != nil {
			return nil, err
		}
		klo, khi := p.keyOffs[b], p.keyOffs[b+1]
		ilo, ihi := p.listOffs[b], p.listOffs[b+1]
		mlo, mhi := p.offs[b], p.offs[b+1]
		out[b] = ShardBucket{
			Key:     keys[klo:khi:khi],
			Items:   items[ilo:ihi:ihi],
			Scores:  scores[ilo:ihi:ihi],
			Members: members[mlo:mhi:mhi],
		}
	}
	return &ShardPass{Buckets: out, Users: len(prefs), Bound: BoundContribution(prefs, cfg)}, nil
}

// MergeShardBuckets merges per-shard bucket lists — indexed by shard,
// ascending — into the global bucket list: the first shard to list a
// key donates its bucket, and each later shard's positions fold in
// element-wise, in shard order. LM keeps the first minimum (strict <,
// so a tie keeps the earlier shard's bits, as the serial fold keeps
// the earlier member's); AV adds each shard's partial sum to the
// running total in shard order. Members concatenate in shard order.
// With contiguous ascending shards that concatenation order is global
// user order, and the first-seen enumeration order is the serial
// pass's first-seen order. Inputs are not mutated; adopted buckets
// clone their score and member slices. Callers must present the
// passes in shard order regardless of response arrival order — that
// is what makes the merge (and the AV partial-sum order) canonical.
func MergeShardBuckets(passes [][]ShardBucket, cfg Config) []ShardBucket {
	n := 0
	for _, pass := range passes {
		n += len(pass)
	}
	idx := make(map[string]int, n)
	out := make([]ShardBucket, 0, n)
	for _, pass := range passes {
		for _, b := range pass {
			i, ok := idx[string(b.Key)]
			if !ok {
				idx[string(b.Key)] = len(out)
				out = append(out, ShardBucket{
					Key:     b.Key,
					Items:   b.Items,
					Scores:  slices.Clone(b.Scores),
					Members: slices.Clone(b.Members),
				})
				continue
			}
			dst := &out[i]
			switch cfg.Semantics {
			case semantics.LM:
				for j, v := range b.Scores {
					if v < dst.Scores[j] {
						dst.Scores[j] = v
					}
				}
			case semantics.AV:
				for j, v := range b.Scores {
					dst.Scores[j] += v
				}
			}
			dst.Members = append(dst.Members, b.Members...)
		}
	}
	return out
}

// ScoreOracle answers the two rating-dependent questions the
// finalizer asks (finalizeTask), abstracted so FinalizeMerged can run
// where the ratings are not: GroupScores is the group score of each
// listed item over the given members (a strict bucket piece's
// rescore), and GroupTopK is the full top-k computation for merged
// remainders and short-listed buckets. run() answers through the
// in-process local oracle, so implementations must match the
// semantics.Scorer arithmetic; internal/shard reassembles both answers
// from per-shard ItemStats partials.
type ScoreOracle interface {
	GroupScores(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, items []dataset.ItemID) ([]float64, error)
	GroupTopK(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error)
}

// Probe is one rating question of a finalization plan: with Items
// set, the group score of each listed item over Members (GroupScores,
// a refold piece); with Items nil, the group's top-K list (GroupTopK,
// an LM-MAX or short-listed bucket or the merged remainder). The
// groups of one plan are disjoint, so a plan's probes list each user
// at most once.
type Probe struct {
	Members []dataset.UserID
	Items   []dataset.ItemID
	K       int
}

// Answer is a Probe's answer as GroupScores or GroupTopK returns it:
// Scores aligned with the probe's Items, or a top-k list in Items and
// Scores.
type Answer struct {
	Items  []dataset.ItemID
	Scores []float64
}

// BatchOracle is a ScoreOracle that answers a whole plan in one round:
// Batch returns one Answer per probe, in order. FinalizeMerged hands
// it every probe of its plan at once; internal/shard sends the list to
// each shard in a single call.
type BatchOracle interface {
	ScoreOracle
	Batch(ctx context.Context, sem semantics.Semantics, probes []Probe) ([]Answer, error)
}

// FinalizeMerged is run() from the bucket list onward: the same plan
// and the same per-group finalizer, with every rating probe routed
// through the oracle instead of a local Dataset — that shared code is
// the parity argument's other half. finalizeTask runs twice per group
// that needs a rating: first against a recorder that lists the probe
// it asks, then, once every probe of the plan is answered, against
// that answer. A BatchOracle gets the whole list in one Batch call;
// any other oracle is asked probe by probe, in plan order. Groups
// finalize serially whatever cfg.Workers holds, and a failed probe or
// a cancellation returns a nil Result with the error.
func FinalizeMerged(ctx context.Context, cfg Config, merged []ShardBucket, o ScoreOracle) (*Result, error) {
	if err := cfg.validateParams(); err != nil {
		return nil, err
	}
	if len(merged) == 0 {
		return nil, gferr.BadConfigf("core: merged bucket list must be non-empty")
	}
	if o == nil {
		return nil, gferr.BadConfigf("core: FinalizeMerged requires a ScoreOracle")
	}
	if err := gferr.Ctx(ctx); err != nil {
		return nil, err
	}
	var nk, ni, nm int
	//gfvet:allow ctxcadence -- O(buckets) field validation, two comparisons per iteration; nothing blocks
	for i, sb := range merged {
		if len(sb.Members) == 0 {
			return nil, gferr.BadConfigf("core: merged bucket %d has no members", i)
		}
		if len(sb.Items) != len(sb.Scores) {
			return nil, gferr.BadConfigf("core: merged bucket %d has %d items but %d scores", i, len(sb.Items), len(sb.Scores))
		}
		nk, ni, nm = nk+len(sb.Key), ni+len(sb.Items), nm+len(sb.Members)
	}
	// The plan reads ascending members: each bucket's arrive in shard
	// order, which is ascending only for contiguous ascending shards.
	p := &Partition{
		keys:     make([]byte, 0, nk),
		keyOffs:  append(make([]int32, 0, len(merged)+1), 0),
		items:    make([]dataset.ItemID, 0, ni),
		scores:   make([]float64, 0, ni),
		listOffs: append(make([]int32, 0, len(merged)+1), 0),
		members:  make([]dataset.UserID, 0, nm),
		offs:     append(make([]int32, 0, len(merged)+1), 0),
	}
	//gfvet:allow ctxcadence -- one copy and one sort of a bucket's members per iteration, O(users) in all; finalization polls between groups
	for _, sb := range merged {
		p.keys = append(p.keys, sb.Key...)
		p.keyOffs = append(p.keyOffs, int32(len(p.keys)))
		p.items = append(p.items, sb.Items...)
		p.scores = append(p.scores, sb.Scores...)
		p.listOffs = append(p.listOffs, int32(len(p.items)))
		lo := len(p.members)
		p.members = append(p.members, sb.Members...)
		sortUsers(p.members[lo:])
		p.offs = append(p.offs, int32(len(p.members)))
	}
	tasks := NewScratch().plan(p, cfg, nil)
	res := &Result{Groups: make([]Group, len(tasks)), Buckets: p.buckets(), Algorithm: cfg.AlgorithmName()}
	var rec probeRecorder
	var asked []int
	for i, t := range tasks {
		g, err := finalizeTask(ctx, cfg, t, &rec)
		if errors.Is(err, errProbeRecorded) {
			asked = append(asked, i)
			continue
		}
		if err != nil {
			return nil, err
		}
		res.Groups[i] = g
	}
	answers, err := askAll(ctx, cfg.Semantics, o, rec.probes)
	if err != nil {
		return nil, err
	}
	for p, i := range asked {
		if res.Groups[i], err = finalizeTask(ctx, cfg, tasks[i], answered(answers[p])); err != nil {
			return nil, err
		}
	}
	for _, g := range res.Groups {
		res.Objective += g.Satisfaction
	}
	return res, nil
}

// errProbeRecorded stops finalizeTask's first pass at a group's probe.
// It never leaves FinalizeMerged.
var errProbeRecorded = errors.New("core: probe recorded")

// probeRecorder is the first pass's oracle: it lists each probe and
// answers none.
type probeRecorder struct{ probes []Probe }

func (r *probeRecorder) GroupScores(_ context.Context, _ semantics.Semantics, members []dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	r.probes = append(r.probes, Probe{Members: members, Items: items})
	return nil, errProbeRecorded
}

func (r *probeRecorder) GroupTopK(_ context.Context, _ semantics.Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error) {
	r.probes = append(r.probes, Probe{Members: members, K: k})
	return nil, nil, errProbeRecorded
}

// answered is the second pass's oracle for one group: the answer to the
// probe the group recorded.
type answered Answer

func (a answered) GroupScores(context.Context, semantics.Semantics, []dataset.UserID, []dataset.ItemID) ([]float64, error) {
	return a.Scores, nil
}

func (a answered) GroupTopK(context.Context, semantics.Semantics, []dataset.UserID, int) ([]dataset.ItemID, []float64, error) {
	return a.Items, a.Scores, nil
}

// askAll answers probes through o: in one Batch call when o batches,
// else one GroupScores or GroupTopK call per probe, in order.
func askAll(ctx context.Context, sem semantics.Semantics, o ScoreOracle, probes []Probe) ([]Answer, error) {
	if len(probes) == 0 {
		return nil, nil
	}
	if b, ok := o.(BatchOracle); ok {
		return b.Batch(ctx, sem, probes)
	}
	answers := make([]Answer, len(probes))
	for i, p := range probes {
		var err error
		if p.Items != nil {
			answers[i].Scores, err = o.GroupScores(ctx, sem, p.Members, p.Items)
		} else {
			answers[i].Items, answers[i].Scores, err = o.GroupTopK(ctx, sem, p.Members, p.K)
		}
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// BoundContribution is one shard's component of the anytime bound
// (the bound decomposed over a user partition): under LM the best
// singleton aggregated satisfaction among residents (the global
// bound takes the max of these), under AV the residents' summed
// weighted mass Σ w·max(top-1 score, Missing) (the global bound sums
// these). CombineBounds reassembles the global figure.
func BoundContribution(prefs []rank.PrefList, cfg Config) float64 {
	if cfg.Semantics == semantics.LM {
		best := math.Inf(-1)
		for _, p := range prefs {
			if s := cfg.Aggregation.Aggregate(p.Scores); s > best {
				best = s
			}
		}
		return best
	}
	total := 0.0
	for _, p := range prefs {
		mx := p.Scores[0]
		if cfg.Missing > mx {
			mx = cfg.Missing
		}
		total += cfg.weight(p.User) * mx
	}
	return total
}

// CombineBounds reassembles the admissible anytime bound from
// per-shard BoundContribution components covering users residents in
// total. Over the full population this equals the single-node bound
// (anytimeBound) exactly under LM (max of maxes) and up to summation
// reassociation under AV; over a responding subset of shards it is
// the sound bound for the sub-population actually served — which is
// what the router's degraded certificate is about.
//
// Why the bound is admissible. LM: a group's satisfaction never
// exceeds any member's singleton satisfaction (group item scores are
// pointwise at most each member's own, every aggregation here is
// monotone, and a member's own top-k list maximizes the aggregation
// over any k items), so OPT is at most min(L, n) groups each worth the
// best singleton satisfaction. AV: every item's group score is at most
// the sum over members of w_u * mx_u (mx_u bounds u's score of any
// item: the larger of the top preference score and the Missing
// imputation), a score list bounded pointwise by a constant c
// aggregates to at most c * Aggregate(1,...,1), and the groups
// partition the users — so the per-user contributions sum once over
// the whole population. This is the same admissible-bound argument
// branch-and-bound prunes with.
func CombineBounds(contribs []float64, users int, cfg Config) float64 {
	if cfg.Semantics == semantics.LM {
		best := math.Inf(-1)
		for _, c := range contribs {
			if c > best {
				best = c
			}
		}
		groups := cfg.L
		if users < groups {
			groups = users
		}
		return float64(groups) * best
	}
	ones := make([]float64, cfg.K)
	for j := range ones {
		ones[j] = 1
	}
	aggFactor := cfg.Aggregation.Aggregate(ones)
	total := 0.0
	for _, c := range contribs {
		total += c
	}
	return total * aggFactor
}

// LocalOracle answers the ScoreOracle questions straight from an
// in-process Dataset with the serial scorer — run()'s own local
// oracle, polling ctx once per probe and answering in fresh slices.
// It is the oracle the distributed gather path is pinned against in
// tests, and the degenerate one-process topology. A member or item
// absent from DS is an ErrBadConfig error.
type LocalOracle struct {
	DS  *dataset.Dataset
	Cfg Config
}

func (o LocalOracle) local() *localOracle {
	sc := o.Cfg.scorer(o.DS)
	sc.Workers = 1
	return &localOracle{sc: sc}
}

// GroupScores is the group score of each listed item over members.
func (o LocalOracle) GroupScores(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	if err := gferr.Ctx(ctx); err != nil {
		return nil, err
	}
	return o.local().GroupScores(ctx, sem, members, items)
}

// GroupTopK is the full top-k computation over members.
func (o LocalOracle) GroupTopK(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error) {
	if err := gferr.Ctx(ctx); err != nil {
		return nil, nil, err
	}
	return o.local().GroupTopK(ctx, sem, members, k)
}
