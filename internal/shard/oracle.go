package shard

import (
	"context"
	"fmt"
	"sync"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/semantics"
	"groupform/internal/server"
)

// gatherOracle answers core.FinalizeMerged's two rating questions by
// fanning POST /shard/scores out to the responding shard set and
// folding the per-shard semantics.ItemStats partials in ascending
// shard order — for contiguous shards, the serial member order — with
// ItemStats.Merge. Scoring, top-k selection and padding are the
// scorer's own (ItemStats.Score, semantics.TopKFromStats); the oracle
// only gathers and merges records, plus the item catalog a short top-k
// list pads from, fetched lazily from the first responding shard in
// the dataset's index order. One oracle serves one routed request;
// FinalizeMerged drives it serially.
type gatherOracle struct {
	c       *Client
	dataset string
	// shards is the responding subset, ascending. Partial-sum order
	// and the resident invariant are both defined over this set: a
	// degraded solve forms groups only from responding shards'
	// members, so their resident counts still must cover every
	// member list the finalizer asks about.
	shards []int

	catOnce sync.Once
	catalog []dataset.ItemID
	catErr  error

	missing float64
}

// fanScores asks every responding shard for the members' stats and
// returns the responses indexed like o.shards. Any failure is fatal
// for the solve: the scatter phase already fixed the shard subset,
// and losing a shard mid-gather would silently drop its residents'
// ratings from the scores.
func (o *gatherOracle) fanScores(ctx context.Context, members []dataset.UserID, items []dataset.ItemID) ([]*server.ShardScoresResponse, error) {
	req := server.ShardScoresRequest{Dataset: o.dataset, Members: members, Items: items}
	out := make([]*server.ShardScoresResponse, len(o.shards))
	errs := make([]error, len(o.shards))
	var wg sync.WaitGroup
	for i, s := range o.shards {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			out[i], errs[i] = o.c.scores(ctx, s, req)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	residents := 0
	for _, r := range out {
		residents += r.Residents
	}
	if residents != len(members) {
		// Every member must be resident on exactly one responding
		// shard; a mismatch means the topology drifted under us (a
		// shard reloaded with a different partition) and any score
		// built from these partials would be silently wrong.
		//gfvet:allow sentinelwrap -- deliberately unclassified: a topology fault must surface as a 500, not a client-attributable sentinel, and there is no upstream cause to propagate
		return nil, fmt.Errorf("shard: resident counts sum to %d for %d members — shard topology mismatch", residents, len(members))
	}
	return out, nil
}

// GroupScores is LocalOracle.GroupScores over the wire: the group
// score of each listed item, positionally aligned.
func (o *gatherOracle) GroupScores(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	resps, err := o.fanScores(ctx, members, items)
	if err != nil {
		return nil, err
	}
	for i, r := range resps {
		if len(r.Stats) != len(items) {
			//gfvet:allow sentinelwrap -- deliberately unclassified: a malformed gather reply is a router-side 500, not a client-attributable sentinel, and there is no upstream cause to propagate
			return nil, fmt.Errorf("shard: shard %d returned %d stats for %d items", o.shards[i], len(r.Stats), len(items))
		}
	}
	out := make([]float64, len(items))
	for q := range items {
		var st semantics.ItemStats
		for _, r := range resps {
			st.Merge(r.Stats[q])
		}
		out[q] = st.Score(sem, len(members), float64(len(members)), o.missing)
	}
	return out, nil
}

// GroupTopK is LocalOracle.GroupTopK over the wire: the stats of
// every item any member rated, merged by item, then
// semantics.TopKFromStats.
func (o *gatherOracle) GroupTopK(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error) {
	resps, err := o.fanScores(ctx, members, nil)
	if err != nil {
		return nil, nil, err
	}
	var stats []semantics.ItemStats
	at := make(map[dataset.ItemID]int)
	for _, r := range resps {
		for _, st := range r.Stats {
			if p, ok := at[st.Item]; ok {
				stats[p].Merge(st)
				continue
			}
			at[st.Item] = len(stats)
			stats = append(stats, st)
		}
	}
	var cat []dataset.ItemID
	if len(stats) < k {
		if cat, err = o.fullCatalog(ctx); err != nil {
			return nil, nil, err
		}
	}
	items, scores := semantics.TopKFromStats(sem, stats, len(members), float64(len(members)), o.missing, k, cat)
	return items, scores, nil
}

// fullCatalog lazily fetches the item catalog from the first
// responding shard, in the dataset's item *index* order — the order
// the serial padding walk uses, which after an append-only upsert is
// not necessarily ascending ID order. Every shard keeps the full
// catalog — dataset.ShardUsers preserves zero-rated items — so one
// answer serves the whole solve.
func (o *gatherOracle) fullCatalog(ctx context.Context) ([]dataset.ItemID, error) {
	o.catOnce.Do(func() {
		resp, err := o.c.catalog(ctx, o.shards[0], o.dataset)
		if err != nil {
			o.catErr = err
			return
		}
		o.catalog = resp.Items
	})
	return o.catalog, o.catErr
}

// newGatherOracle builds the oracle for one routed request.
func newGatherOracle(c *Client, dataset string, shards []int, cfg core.Config) *gatherOracle {
	return &gatherOracle{c: c, dataset: dataset, shards: shards, missing: cfg.Missing}
}
