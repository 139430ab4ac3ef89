package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/rank"
	"groupform/internal/server"
	"groupform/internal/solver"
)

// replayBlocks is how many whole blocks of the request sequence the
// traced run replays through the layers in-process: every config
// that many times.
const replayBlocks = 3

// ingestBatches is how many upsert batches the traced ingest run
// replays in-process: at about nine ratings a batch, several
// compactions at the workload's threshold.
const ingestBatches = 384

// traced measures the per-layer split. The timed phase runs in four
// equal chunks — untraced, traced, traced, untraced — so drift during
// the run weighs on both halves alike; the untraced chunks give the
// /metrics deltas and the reference latency, the traced ones the
// client spans and the tracing overhead. The layers are then timed
// in-process over the first replayBlocks blocks of the sequence.
func (b *bench) traced(ctx context.Context) (*outcome, error) {
	out := newOutcome()
	cl, setup, err := b.startCluster(true)
	if err != nil {
		return nil, err
	}
	defer b.stopCluster(cl)
	out.printf("  setup %.4f s", setup.Seconds())

	tr := newTracer()
	st := &loopState{seq: b.seq}
	bounds := make([]boundary, 5)
	if bounds[0], err = b.snapshot(cl, true); err != nil {
		return nil, err
	}
	var plain, traced []chunk
	for i, on := range []bool{false, true, true, false} {
		var t *tracer
		if on {
			t = tr
		}
		ch := b.closedLoop(cl, st, b.dur/4, t)
		if bounds[i+1], err = b.snapshot(cl, true); err != nil {
			return nil, err
		}
		if on {
			traced = append(traced, ch)
		} else {
			plain = append(plain, ch)
		}
	}
	pa, pb := summarize(plain...), summarize(traced...)
	out.account(pa)
	out.account(pb)
	shed, err := b.daemonChecks(cl, bounds[4])
	out.fail(err)
	if b.w.writes > 0 {
		out.fail(b.checkFinal(ctx, cl, st.written))
	}

	v, m := out.values, b.meta
	v["server.shed"] = shed
	m.Samples["server.shed"] = max(b.w.shards, 1) // groupformd processes scraped
	untracedWindows := [][2]int{{0, 1}, {3, 4}}
	// hist sums one histogram of process i over the untraced chunks.
	hist := func(i int, labels string) (histDelta, error) {
		var d histDelta
		for _, w := range untracedWindows {
			x, err := histogramDelta(bounds[w[0]].metrics[i], bounds[w[1]].metrics[i], "groupform_request_duration_seconds", labels)
			if err != nil {
				return d, err
			}
			d = d.add(x)
		}
		return d, nil
	}
	front := len(cl.procs) - 1
	handler, err := hist(front, `endpoint="form"`)
	if err != nil {
		return nil, err
	}
	clientMean := mean(pa.reads)
	v["server.handler_ms"] = handler.MeanMS()
	v["server.wait_ms"] = clientMean - handler.MeanMS()
	m.Samples["server.handler_ms"] = int(handler.Count)
	m.Samples["server.wait_ms"] = len(pa.reads)

	var gc int64
	for i := range cl.procs {
		for _, w := range untracedWindows {
			gc += bounds[w[1]].gc[i] - bounds[w[0]].gc[i]
		}
	}
	if pa.ok > 0 {
		v["gc.cycles_per_kreq"] = float64(gc) / (float64(pa.ok) / 1000)
	}
	m.Samples["gc.cycles_per_kreq"] = pa.ok

	if b.w.writes > 0 {
		up, err := hist(front, `endpoint="upsert"`)
		if err != nil {
			return nil, err
		}
		v["server.upsert_ms"] = up.MeanMS()
		v["upsert_p50_ms"] = percentile(pa.writes, 0.5)
		m.Samples["server.upsert_ms"] = int(up.Count)
		m.Samples["upsert_p50_ms"] = len(pa.writes)
	}
	if b.w.shards > 0 {
		v["shard.router_ms"] = handler.MeanMS()
		m.Samples["shard.router_ms"] = int(handler.Count)
		var gather histDelta
		var rounds float64
		for i := 0; i < b.w.shards; i++ {
			d, err := hist(i, `endpoint="shard_scores"`)
			if err != nil {
				return nil, err
			}
			gather = gather.add(d)
		}
		for _, w := range untracedWindows {
			d, err := counterDelta(bounds[w[0]].metrics[0], bounds[w[1]].metrics[0], "groupform_requests_total", `endpoint="shard_scores"`)
			if err != nil {
				return nil, err
			}
			rounds += d
		}
		v["shard.gather_ms"] = gather.MeanMS()
		v["shard.gather_rounds"] = rounds / float64(handler.Count)
		m.Samples["shard.gather_ms"] = int(gather.Count)
		m.Samples["shard.gather_rounds"] = int(handler.Count)
	}

	if err := b.replay(ctx, cl, tr, out); err != nil {
		return nil, err
	}
	if b.w.writes > 0 {
		if err := b.replayIngest(ctx, tr, out); err != nil {
			return nil, err
		}
	}
	if err := tr.write(b.runFile("spans.json")); err != nil {
		return nil, err
	}

	out.printf("  tracing overhead (traced minus untraced chunks): mean %+.4f ms, p50 %+.4f ms, throughput %+.2f 1/s (%d vs %d requests)",
		mean(pb.reads)-clientMean, percentile(pb.reads, 0.5)-percentile(pa.reads, 0.5), pb.throughput-pa.throughput, pb.ok, pa.ok)
	b.printSplit(out, clientMean, len(pa.reads))
	return out, nil
}

// servedConfig is the core.Config the daemon solves c with.
func (b *bench) servedConfig(c formConfig) core.Config {
	cfg := c.oracle
	cfg.Workers = c.params.Workers
	return cfg
}

// replay times each layer's public calls in-process over the first
// replayBlocks blocks of the sequence, one root span per request, and
// asserts that the decomposed bucketize -> merge -> finalize answer
// equals Engine.FormInto's and that the encoding equals the bytes the
// daemons were checked against.
func (b *bench) replay(ctx context.Context, cl *cluster, tr *tracer, out *outcome) error {
	// Two Ps, so core.form_w2 and the parallel scatter can use both
	// cores.
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	v, m := out.values, b.meta

	var loads []float64
	var ds *dataset.Dataset
	for i := 0; i < 3; i++ {
		start := time.Now()
		d, err := loadCatalog(b.catalogPath)
		if err != nil {
			return err
		}
		loads = append(loads, ms(time.Since(start)))
		ds = d
	}
	v["dataset.load_ms"] = median(loads)
	m.Samples["dataset.load_ms"], m.Values["dataset.load_ms"] = len(loads), loads

	workers := max(b.w.workers, 1)
	prefs := map[int][]rank.PrefList{}
	var prefMS []float64
	for _, c := range b.cfgs {
		if _, ok := prefs[c.params.K]; ok {
			continue
		}
		start := time.Now()
		p, err := rank.AllTopKParallel(ctx, ds, c.params.K, c.oracle.Missing, workers)
		if err != nil {
			return err
		}
		prefMS = append(prefMS, ms(time.Since(start)))
		prefs[c.params.K] = p
	}
	v["rank.prefs_ms"] = mean(prefMS)
	m.Samples["rank.prefs_ms"], m.Values["rank.prefs_ms"] = len(prefMS), prefMS

	eng, err := solver.NewEngine(ds)
	if err != nil {
		return err
	}
	scr, scr2 := core.NewScratch(), core.NewScratch()
	for _, c := range b.cfgs { // warm every preference-list slot
		if _, err := eng.FormInto(ctx, b.servedConfig(c), scr); err != nil {
			return err
		}
	}

	var reads []int
	for _, s := range b.seq {
		if s != writeSlot && len(reads) < replayBlocks*len(b.cfgs) {
			reads = append(reads, s)
		}
	}
	// Each path runs as its own pass over the requests, so one path's
	// working set does not evict another's between the calls timed.
	//
	// The decomposed path, one root span per request: bucketize (or
	// the live scatter on routed), merge, finalize over the timing
	// oracle.
	decomposed := make([]*core.Result, len(reads))
	var buckets, topkMembers, scatterBytes int
	for n, slot := range reads {
		c, req := b.cfgs[slot], int32(n)
		cfg := b.servedConfig(c)
		root := tr.begin("replay.request", -1, req)
		id := tr.begin("core.bucketize", root, req)
		pass, err := core.BucketizeShard(ctx, ds, cfg, prefs[cfg.K])
		tr.end(id)
		if err != nil {
			return err
		}
		passes := [][]core.ShardBucket{pass.Buckets}
		if b.w.shards > 0 {
			var nb int
			if passes, nb, err = b.scatter(cl, c.body, tr, root, req); err != nil {
				return err
			}
			scatterBytes += nb
		}
		id = tr.begin("core.merge", root, req)
		merged := core.MergeShardBuckets(passes, cfg)
		tr.end(id)
		fin := tr.begin("core.finalize", root, req)
		o := &timingOracle{inner: core.LocalOracle{DS: ds, Cfg: cfg}, tr: tr, parent: fin, req: req}
		decomposed[n], err = core.FinalizeMerged(ctx, cfg, merged, o)
		tr.end(fin)
		tr.end(root)
		if err != nil {
			return err
		}
		buckets += decomposed[n].Buckets
		topkMembers += o.topkMembers
	}

	// The served path: warm Engine.FormInto and the JSON encoding, in
	// the daemon's order, checked against the decomposed answer and
	// the bytes the daemons were checked against.
	var respBytes int
	var encAlloc uint64
	var ms0, ms1 runtime.MemStats
	for n, slot := range reads {
		c, req := b.cfgs[slot], int32(n)
		root := tr.begin("replay.served", -1, req)
		id := tr.begin("solver.form", root, req)
		res, err := eng.FormInto(ctx, b.servedConfig(c), scr)
		tr.end(id)
		if err != nil {
			return err
		}
		out.fail(sameResult(decomposed[n], res, c.body))
		runtime.ReadMemStats(&ms0)
		id = tr.begin("server.encode", root, req)
		body, err := json.Marshal(server.ToFormResponse(datasetName, res))
		tr.end(id)
		runtime.ReadMemStats(&ms1)
		tr.end(root)
		if err != nil {
			return err
		}
		encAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		body = append(body, '\n')
		respBytes += len(body)
		if !bytes.Equal(body, b.expect[slot]) {
			out.fail(fmt.Errorf("in-process %s: encoded answer differs from the oracle bytes", c.body))
		}
	}

	// core.FormInto at one and two workers, a pass each.
	for _, w := range []struct {
		name    string
		workers int
	}{{"core.form_w1", 1}, {"core.form_w2", 2}} {
		for n, slot := range reads {
			cfg := b.servedConfig(b.cfgs[slot])
			cfg.Workers = w.workers
			id := tr.begin(w.name, -1, int32(n))
			_, err := core.FormInto(ctx, ds, cfg, prefs[cfg.K], scr2)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}

	self, total := layerTotals(tr.snapshot())
	n := float64(len(reads))
	per := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	replayed := map[string]float64{
		"solver.form_ms":         per(total["solver.form"]),
		"core.bucketize_ms":      per(total["core.bucketize"]),
		"core.merge_ms":          per(total["core.merge"]),
		"core.finalize_ms":       per(self["core.finalize"]),
		"semantics.topk_ms":      per(total["semantics.topk"]),
		"semantics.topk_members": float64(topkMembers) / n,
		"semantics.scores_ms":    per(total["semantics.scores"]),
		"core.buckets":           float64(buckets) / n,
		"server.encode_ms":       per(total["server.encode"]),
		"server.resp_kb":         float64(respBytes) / 1024 / n,
		"server.encode_alloc_kb": float64(encAlloc) / 1024 / n,
		"core.form_w1_ms":        per(total["core.form_w1"]),
		"core.form_w2_ms":        per(total["core.form_w2"]),
	}
	if b.w.shards > 0 {
		replayed["shard.scatter_ms"] = per(total["shard.scatter"])
		replayed["shard.scatter_kb"] = float64(scatterBytes) / 1024 / n
		// Printed in the split only: decoding happens in the router.
		v["shard.decode_ms"] = per(total["shard.decode"])
	}
	for k, x := range replayed {
		v[k] = x
		m.Samples[k] = len(reads)
	}
	return nil
}

// sameResult reports whether the decomposed answer equals FormInto's.
func sameResult(got, want *core.Result, what []byte) error {
	eq := got.Objective == want.Objective && got.Buckets == want.Buckets &&
		got.Algorithm == want.Algorithm && len(got.Groups) == len(want.Groups)
	for i := 0; eq && i < len(got.Groups); i++ {
		g, w := got.Groups[i], want.Groups[i]
		eq = slices.Equal(g.Members, w.Members) && slices.Equal(g.Items, w.Items) &&
			slices.Equal(g.ItemScores, w.ItemScores) && g.Satisfaction == w.Satisfaction && g.Merged == w.Merged
	}
	if !eq {
		return fmt.Errorf("in-process %s: BucketizeShard -> MergeShardBuckets -> FinalizeMerged differs from Engine.FormInto", what)
	}
	return nil
}

// scatter sends body to every shard's POST /shard/buckets in parallel,
// as the router does, and decodes the passes in shard order.
func (b *bench) scatter(cl *cluster, body []byte, tr *tracer, parent, req int32) ([][]core.ShardBucket, int, error) {
	sp := tr.begin("shard.scatter", parent, req)
	raw := make([]bytes.Buffer, len(cl.shardURLs))
	errs := make([]error, len(cl.shardURLs))
	var wg sync.WaitGroup
	for i, u := range cl.shardURLs {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			id := tr.begin("shard.scatter.call", sp, req)
			status, err := post(cl.client, u+"/shard/buckets", body, &raw[i])
			tr.end(id)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("POST %s/shard/buckets: status %d: %s", u, status, clip(raw[i].Bytes()))
			}
			errs[i] = err
		}(i, u)
	}
	wg.Wait()
	tr.end(sp)
	var n int
	for i, err := range errs {
		if err != nil {
			return nil, 0, err
		}
		n += raw[i].Len()
	}
	id := tr.begin("shard.decode", parent, req)
	defer tr.end(id)
	passes := make([][]core.ShardBucket, len(raw))
	for i := range raw {
		var resp server.ShardBucketsResponse
		if err := json.Unmarshal(raw[i].Bytes(), &resp); err != nil {
			return nil, 0, err
		}
		bs := make([]core.ShardBucket, len(resp.Buckets))
		for j, wb := range resp.Buckets {
			bs[j] = core.ShardBucket{Key: wb.Key, Items: wb.Items, Scores: wb.Scores, Members: wb.Members}
		}
		passes[i] = bs
	}
	return passes, n, nil
}

// replayIngest times the write path in-process: Dataset.Upsert and
// Engine.Advance per batch of the sequence over an engine holding
// every preference-list slot, and Dataset.Compact whenever the overlay
// reaches the workload's threshold.
func (b *bench) replayIngest(ctx context.Context, tr *tracer, out *outcome) error {
	ds := b.ds
	eng, err := solver.NewEngine(ds)
	if err != nil {
		return err
	}
	scr := core.NewScratch()
	for _, c := range b.cfgs {
		if _, err := eng.FormInto(ctx, b.servedConfig(c), scr); err != nil {
			return err
		}
	}
	patched0 := eng.Stats().RowsPatched
	batches := b.batches[:min(ingestBatches, len(b.batches))]
	var alloc uint64
	var compactions int
	var ms0, ms1 runtime.MemStats
	for j, batch := range batches {
		req := int32(j)
		root := tr.begin("replay.batch", -1, req)
		id := tr.begin("dataset.upsert", root, req)
		nds, res, err := ds.Upsert(batch)
		tr.end(id)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		id = tr.begin("solver.advance", root, req)
		neng, err := eng.Advance(nds, res)
		tr.end(id)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		ds, eng = nds, neng
		if ds.Overlay().Upserts >= b.w.compactAfter {
			id = tr.begin("dataset.compact", root, req)
			cds := ds.Compact()
			tr.end(id)
			compactions++
			if eng, err = eng.Advance(cds, dataset.UpsertResult{}); err != nil {
				return err
			}
			ds = cds
		}
		tr.end(root)
	}
	_, total := layerTotals(tr.snapshot())
	v, m := out.values, b.meta
	n := float64(len(batches))
	v["dataset.upsert_ms"] = float64(total["dataset.upsert"]) / 1e6 / n
	v["solver.advance_ms"] = float64(total["solver.advance"]) / 1e6 / n
	v["solver.rows_patched"] = float64(eng.Stats().RowsPatched-patched0) / n
	v["solver.advance_alloc_kb"] = float64(alloc) / 1024 / n
	if compactions > 0 {
		v["dataset.compact_ms"] = float64(total["dataset.compact"]) / 1e6 / float64(compactions)
	}
	for _, k := range []string{"dataset.upsert_ms", "solver.advance_ms", "solver.rows_patched", "solver.advance_alloc_kb"} {
		m.Samples[k] = len(batches)
	}
	m.Samples["dataset.compact_ms"] = compactions
	return nil
}

// printSplit prints where one warm /form request's untraced mean
// latency goes: each layer's mean self time from the in-process
// replay, the wait outside the daemon's handler, and the residual the
// rows do not account for.
func (b *bench) printSplit(out *outcome, clientMean float64, n int) {
	v := out.values
	type row struct {
		name string
		ms   float64
	}
	var rows []row
	if b.w.shards > 0 {
		// The shards bucketize inside the scatter; the router decodes
		// and merges their passes, then pays a gather round per probe.
		rows = []row{
			{"shard.scatter", v["shard.scatter_ms"]},
			{"shard.decode", v["shard.decode_ms"]},
			{"shard.gather (rounds x shard handler)", v["shard.gather_rounds"] * v["shard.gather_ms"]},
		}
	} else {
		rows = []row{{"core.bucketize", v["core.bucketize_ms"]}}
	}
	rows = append(rows,
		row{"core.merge", v["core.merge_ms"]},
		row{"core.finalize (self)", v["core.finalize_ms"]},
		row{"semantics.topk", v["semantics.topk_ms"]},
		row{"semantics.scores", v["semantics.scores_ms"]},
		row{"server.encode", v["server.encode_ms"]},
		row{"server.wait", v["server.wait_ms"]},
	)
	out.printf("  split of one warm /form request, untraced client mean %.4f ms over %d requests:", clientMean, n)
	sum := 0.0
	for _, r := range rows {
		out.printf("    %-40s %9.4f ms  %6.1f%%", r.name, r.ms, 100*r.ms/clientMean)
		sum += r.ms
	}
	residual := clientMean - sum
	out.printf("    %-40s %9.4f ms  %6.1f%%", "residual", residual, 100*residual/clientMean)
	if b.w.shards == 0 {
		decomposed := v["core.bucketize_ms"] + v["core.merge_ms"] + v["core.finalize_ms"] + v["semantics.topk_ms"] + v["semantics.scores_ms"]
		cost := decomposed - v["solver.form_ms"]
		out.printf("  solver.form_ms %.4f vs decomposed sum %.4f: the decomposition costs %+.4f ms; without it the residual is %+.4f ms",
			v["solver.form_ms"], decomposed, cost, residual+cost)
	}
}
