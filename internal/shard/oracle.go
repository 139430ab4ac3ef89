package shard

import (
	"context"
	"fmt"
	"sync"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/semantics"
	"groupform/internal/wire"
)

// gatherOracle answers core.FinalizeMerged's rating probes in one
// gather round: the plan's whole probe list goes to every responding
// shard as one POST /shard/scores frame, each shard answers every
// probe from its residents, and the per-shard semantics.ItemStats
// records are folded straight from the answer frames in ascending
// shard order — for contiguous shards, the serial member order — with
// ItemStats.Merge. Scoring, top-k selection and padding are the
// scorer's own (ItemStats.Score, semantics.TopKFromStats); the oracle
// only gathers and merges records, plus the item catalog a short top-k
// list pads from, fetched at most once per round from the first
// responding shard in the dataset's index order. One oracle serves one
// routed request.
type gatherOracle struct {
	c       *Client
	dataset string
	// shards is the responding subset, ascending. Partial-sum order
	// and the resident invariant are both defined over this set: a
	// degraded solve forms groups only from responding shards'
	// members, so their resident counts still must cover every
	// member list the finalizer asks about.
	shards []int

	missing float64
}

// Batch asks every responding shard for every probe's stats in one
// call each and merges the answers probe by probe. Any failure is
// fatal for the solve: the scatter phase already fixed the shard
// subset, and losing a shard mid-gather would silently drop its
// residents' ratings from the scores.
func (o *gatherOracle) Batch(ctx context.Context, sem semantics.Semantics, probes []core.Probe) ([]core.Answer, error) {
	frame := wire.AppendScoresRequest(nil, wire.ScoresRequest{Dataset: []byte(o.dataset), Probes: probes})
	check := func(parts []wire.ProbeStats) error { return checkAnswers(parts, probes) }
	parts := make([][]wire.ProbeStats, len(o.shards))
	errs := make([]error, len(o.shards))
	var wg sync.WaitGroup
	for i, s := range o.shards {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			parts[i], errs[i] = o.c.scores(ctx, s, frame, check)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	answers := make([]core.Answer, len(probes))
	var (
		stats []semantics.ItemStats
		cat   []dataset.ItemID
		next  = make([]int, len(parts))
	)
	for p, pr := range probes {
		residents := 0
		for _, sh := range parts {
			residents += sh[p].Residents
		}
		if residents != len(pr.Members) {
			// Every member must be resident on exactly one responding
			// shard; a mismatch means the topology drifted under us (a
			// shard reloaded with a different partition) and any score
			// built from these partials would be silently wrong.
			//gfvet:allow sentinelwrap -- deliberately unclassified: a topology fault must surface as a 500, not a client-attributable sentinel, and there is no upstream cause to propagate
			return nil, fmt.Errorf("shard: resident counts sum to %d for %d members — shard topology mismatch", residents, len(pr.Members))
		}
		n := len(pr.Members)
		if pr.Items != nil {
			scores := make([]float64, len(pr.Items))
			for q := range pr.Items {
				var st semantics.ItemStats
				for _, sh := range parts {
					st.Merge(sh[p].At(q))
				}
				scores[q] = st.Score(sem, n, float64(n), o.missing)
			}
			answers[p].Scores = scores
			continue
		}
		stats = mergeByItem(stats[:0], parts, p, next)
		if len(stats) < pr.K && cat == nil {
			resp, err := o.c.catalog(ctx, o.shards[0], o.dataset)
			if err != nil {
				return nil, err
			}
			cat = resp.Items
		}
		answers[p].Items, answers[p].Scores = semantics.TopKFromStats(sem, stats, n, float64(n), o.missing, pr.K, cat)
	}
	return answers, nil
}

// GroupScores is Batch over one refold probe. FinalizeMerged never
// asks it: it batches the whole plan.
func (o *gatherOracle) GroupScores(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	a, err := o.Batch(ctx, sem, []core.Probe{{Members: members, Items: items}})
	if err != nil {
		return nil, err
	}
	return a[0].Scores, nil
}

// GroupTopK is Batch over one top-k probe.
func (o *gatherOracle) GroupTopK(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error) {
	a, err := o.Batch(ctx, sem, []core.Probe{{Members: members, K: k}})
	if err != nil {
		return nil, nil, err
	}
	return a[0].Items, a[0].Scores, nil
}

// checkAnswers holds one shard's parsed answer to the request it
// answers: one answer per probe, a refold probe's records aligned with
// its items, and a top-k probe's strictly ascending by item ID, which
// mergeByItem relies on.
func checkAnswers(parts []wire.ProbeStats, probes []core.Probe) error {
	if len(parts) != len(probes) {
		return gferr.BadConfigf("shard: %d answers for %d probes", len(parts), len(probes))
	}
	for p, pr := range probes {
		ps := parts[p]
		if pr.Items != nil {
			if ps.Len() != len(pr.Items) {
				return gferr.BadConfigf("shard: probe %d: %d records for %d items", p, ps.Len(), len(pr.Items))
			}
			continue
		}
		for i := 1; i < ps.Len(); i++ {
			if ps.Item(i) <= ps.Item(i-1) {
				return gferr.BadConfigf("shard: probe %d: records out of item order", p)
			}
		}
	}
	return nil
}

// mergeByItem appends probe p's records from every shard to dst as
// one record per item, ascending by item ID. Each shard's run is
// ascending already, so the runs merge in one pass; the first shard to
// list an item donates its record and later shards Merge into it, in
// shard order. next is scratch of len(parts).
func mergeByItem(dst []semantics.ItemStats, parts [][]wire.ProbeStats, p int, next []int) []semantics.ItemStats {
	clear(next)
	for {
		first := -1
		var item dataset.ItemID
		for s, sh := range parts {
			if next[s] < sh[p].Len() {
				if it := sh[p].Item(next[s]); first < 0 || it < item {
					first, item = s, it
				}
			}
		}
		if first < 0 {
			return dst
		}
		st := parts[first][p].At(next[first])
		next[first]++
		for s := first + 1; s < len(parts); s++ {
			if ps := parts[s][p]; next[s] < ps.Len() && ps.Item(next[s]) == item {
				st.Merge(ps.At(next[s]))
				next[s]++
			}
		}
		dst = append(dst, st)
	}
}

// newGatherOracle builds the oracle for one routed request.
func newGatherOracle(c *Client, dataset string, shards []int, cfg core.Config) *gatherOracle {
	return &gatherOracle{c: c, dataset: dataset, shards: shards, missing: cfg.Missing}
}
