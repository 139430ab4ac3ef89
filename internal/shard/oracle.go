package shard

import (
	"context"
	"fmt"
	"math"
	"sync"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/selection"
	"groupform/internal/semantics"
	"groupform/internal/server"
)

// gatherOracle answers core.FinalizeMerged's two rating questions by
// fanning POST /shard/scores out to the responding shard set and
// reassembling the per-shard ItemStats partials with the exact
// arithmetic of semantics.Scorer:
//
//	LM item score = min over shard minima, dropped to Missing when
//	    the summed rater count falls short of the membership — exact,
//	    min is associative.
//	AV item score = Σ WSum + (totalW − Σ WRaters)·Missing — the
//	    topKDense formula with the member-order sum reassociated into
//	    per-shard partials (accumulated in ascending shard order,
//	    which for contiguous shards is the serial member order).
//
// Top-k selection reuses internal/selection's k-bounded kernel under
// the same (score desc, item asc) total order the scorer sorts by,
// and short candidate lists pad from the full item catalog in
// ascending order, fetched lazily from the first responding shard —
// mirroring topKDense's padding walk. One oracle serves one routed
// request; FinalizeMerged drives it serially.
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

// mergedStat is one item's stats folded across the responding
// shards.
type mergedStat struct {
	min     float64
	count   int
	wsum    float64
	wraters float64
}

// fold accumulates one shard's wire stats into m. Wire Min is
// meaningful only when Count > 0 (JSON cannot carry the +Inf
// identity, so the server zeroes it).
func (m *mergedStat) fold(st server.ShardItemStats) {
	if st.Count > 0 && st.Min < m.min {
		m.min = st.Min
	}
	m.count += st.Count
	m.wsum += st.WSum
	m.wraters += st.WRaters
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

// GroupScores mirrors LocalOracle.GroupScores: the group score of
// each listed item, positionally aligned.
func (o *gatherOracle) GroupScores(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	resps, err := o.fanScores(ctx, members, items)
	if err != nil {
		return nil, err
	}
	totalW := float64(len(members))
	out := make([]float64, len(items))
	for q := range items {
		m := mergedStat{min: math.Inf(1)}
		for i := range o.shards {
			if len(resps[i].Stats) != len(items) {
				//gfvet:allow sentinelwrap -- deliberately unclassified: a malformed gather reply is a router-side 500, not a client-attributable sentinel, and there is no upstream cause to propagate
				return nil, fmt.Errorf("shard: shard %d returned %d stats for %d items", o.shards[i], len(resps[i].Stats), len(items))
			}
			m.fold(resps[i].Stats[q])
		}
		out[q] = o.itemScore(sem, m, len(members), totalW)
	}
	return out, nil
}

// itemScore is semantics.Scorer.ItemScore reassembled from merged
// stats: members who did not rate the item contribute Missing.
func (o *gatherOracle) itemScore(sem semantics.Semantics, m mergedStat, members int, totalW float64) float64 {
	if sem == semantics.LM {
		score := m.min
		if m.count < members && o.missing < score {
			score = o.missing
		}
		if math.IsInf(score, 1) {
			score = o.missing
		}
		return score
	}
	return m.wsum + (totalW-m.wraters)*o.missing
}

// scoredItem mirrors the scorer's candidate ordering: score
// descending, item ascending — a strict total order, which is what
// makes the selection independent of candidate enumeration order.
type scoredItem struct {
	item  dataset.ItemID
	score float64
}

func lessScored(a, b scoredItem) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.item < b.item
}

// GroupTopK mirrors Scorer.TopK over the wire: accumulate per-item
// stats for everything the members rated, score them through
// itemScore, select the best k, pad from the catalog.
func (o *gatherOracle) GroupTopK(ctx context.Context, sem semantics.Semantics, members []dataset.UserID, k int) ([]dataset.ItemID, []float64, error) {
	resps, err := o.fanScores(ctx, members, nil)
	if err != nil {
		return nil, nil, err
	}
	merged := make(map[dataset.ItemID]*mergedStat)
	for i := range o.shards {
		for _, st := range resps[i].Stats {
			m, ok := merged[st.Item]
			if !ok {
				m = &mergedStat{min: math.Inf(1)}
				merged[st.Item] = m
			}
			m.fold(st)
		}
	}
	totalW := float64(len(members))
	all := make([]scoredItem, 0, len(merged))
	for it, m := range merged {
		all = append(all, scoredItem{item: it, score: o.itemScore(sem, *m, len(members), totalW)})
	}
	n := selection.TopK(all, k, lessScored)
	items := make([]dataset.ItemID, 0, k)
	scores := make([]float64, 0, k)
	for _, si := range all[:n] {
		items = append(items, si.item)
		scores = append(scores, si.score)
	}
	if len(items) < k {
		imputed := o.missing
		if sem == semantics.AV {
			imputed = o.missing * totalW
		}
		cat, err := o.fullCatalog(ctx)
		if err != nil {
			return nil, nil, err
		}
		for _, id := range cat {
			if len(items) >= k {
				break
			}
			if _, rated := merged[id]; rated {
				continue
			}
			items = append(items, id)
			scores = append(scores, imputed)
		}
	}
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
