package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"form_p50_ms", "ms"},
	{"form_tail_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"rss_mb", "MiB"},
	{"ok_frac", "ratio"},
}

// perLayer are the metrics a traced run reports. A layer a workload
// does not exercise reads 0 (README.md lists which run where).
var perLayer = []metricDef{
	{"dataset.load_ms", "ms"},
	{"rank.prefs_ms", "ms"},
	{"solver.form_ms", "ms"},
	{"core.bucketize_ms", "ms"},
	{"core.buckets", "count"},
	{"core.merge_ms", "ms"},
	{"core.finalize_ms", "ms"},
	{"semantics.topk_ms", "ms"},
	{"semantics.topk_members", "count"},
	{"semantics.scores_ms", "ms"},
	{"core.form_w1_ms", "ms"},
	{"core.form_w2_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.wait_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.resp_kb", "KiB"},
	{"server.encode_alloc_kb", "KiB"},
	{"server.shed", "count"},
	{"upsert_p50_ms", "ms"},
	{"server.upsert_ms", "ms"},
	{"dataset.upsert_ms", "ms"},
	{"solver.advance_ms", "ms"},
	{"solver.rows_patched", "count"},
	{"solver.advance_alloc_kb", "KiB"},
	{"dataset.compact_ms", "ms"},
	{"shard.router_ms", "ms"},
	{"shard.scatter_ms", "ms"},
	{"shard.scatter_kb", "KiB"},
	{"shard.gather_rounds", "count"},
	{"shard.gather_ms", "ms"},
	{"gc.cycles_per_kreq", "1/kreq"},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cluster is the set of server processes one workload talks to.
type cluster struct {
	procs     []*proc // every server process; the front one is last
	front     *proc   // the process clients send requests to
	url       string  // front base URL
	shardURLs []string
	client    *http.Client
}

// startCluster spawns the workload's daemons, waits for each to print
// its listening line, and answers one request per config, checking
// every answer. The returned duration is setup_s: first spawn to warm.
func (b *bench) startCluster(gctrace bool) (*cluster, time.Duration, error) {
	start := time.Now()
	cl := &cluster{client: newClient(b.w.conns)}
	dsArg := datasetName + "=" + b.catalogPath
	if b.w.shards == 0 {
		args := []string{"-listen", "127.0.0.1:0", "-dataset", dsArg}
		if b.w.compactAfter > 0 {
			args = append(args, "-compact-after", strconv.Itoa(b.w.compactAfter))
		}
		p, err := b.spawn("groupformd", b.bins.daemon, args, gctrace)
		if err != nil {
			return nil, 0, err
		}
		cl.procs = append(cl.procs, p)
	} else {
		for i := 0; i < b.w.shards; i++ {
			shard := fmt.Sprintf("%d/%d", i, b.w.shards)
			p, err := b.spawn("groupformd -shard "+shard, b.bins.daemon,
				[]string{"-listen", "127.0.0.1:0", "-dataset", dsArg, "-shard", shard}, gctrace)
			if err != nil {
				return nil, 0, err
			}
			cl.procs = append(cl.procs, p)
		}
		args := []string{"-listen", "127.0.0.1:0"}
		for _, p := range cl.procs {
			u, err := p.waitListening()
			if err != nil {
				return nil, 0, err
			}
			cl.shardURLs = append(cl.shardURLs, u)
			args = append(args, "-shard", u)
		}
		p, err := b.spawn("groupform-router", b.bins.router, args, gctrace)
		if err != nil {
			return nil, 0, err
		}
		cl.procs = append(cl.procs, p)
	}
	cl.front = cl.procs[len(cl.procs)-1]
	u, err := cl.front.waitListening()
	if err != nil {
		return nil, 0, err
	}
	cl.url = u
	// Warm up over every connection at once, so the timed phase starts
	// with each connection open and the daemons' per-request state
	// sized for concurrent requests.
	errs := make([]error, b.w.conns)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < len(b.cfgs) && errs[c] == nil; i += b.w.conns {
				body := b.cfgs[i].body
				status, err := post(cl.client, cl.url+"/form", body, &buf)
				switch {
				case err != nil:
					errs[c] = fmt.Errorf("warm-up %s: %w", body, err)
				case status != http.StatusOK || !bytes.Equal(buf.Bytes(), b.expect[i]):
					errs[c] = fmt.Errorf("warm-up %s: status %d, answer differs from the in-process oracle: %s", body, status, clip(buf.Bytes()))
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	return cl, time.Since(start), nil
}

func (b *bench) stopCluster(cl *cluster) {
	stopProcs(cl.procs)
	cl.client.CloseIdleConnections()
}

// boundary is the state of every server process at one instant of
// the timed phase.
type boundary struct {
	cpu     []time.Duration
	gc      []int64
	metrics []string // GET /metrics per process; nil when not scraped
}

func (b *bench) snapshot(cl *cluster, scrape bool) (boundary, error) {
	var bd boundary
	for _, p := range cl.procs {
		c, err := procCPU(p.pid())
		if err != nil {
			return bd, err
		}
		bd.cpu = append(bd.cpu, c)
		bd.gc = append(bd.gc, p.gcCycles.Load())
		if scrape {
			text, err := getText(cl.client, p.base+"/metrics")
			if err != nil {
				return bd, err
			}
			bd.metrics = append(bd.metrics, text)
		}
	}
	return bd, nil
}

func getText(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), err
}

// daemonChecks verifies what must hold on every groupformd at the end
// of a run: nothing was shed. It returns the shed total.
func (b *bench) daemonChecks(cl *cluster, end boundary) (float64, error) {
	var shed float64
	for i, p := range cl.procs {
		if p == cl.front && b.w.shards > 0 {
			continue // the router has no admission gate
		}
		v, err := sampleValue(end.metrics[i], "groupform_shed_total", "")
		if err != nil {
			return 0, err
		}
		shed += v
	}
	if shed != 0 {
		return shed, fmt.Errorf("%v requests were shed", shed)
	}
	return shed, nil
}

// checkFinal compares one answer per config with the in-process
// replay of the catalog plus every acknowledged upsert.
func (b *bench) checkFinal(ctx context.Context, cl *cluster, written int) error {
	ds, err := applyBatches(b.ds, b.batches[:written])
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, c := range b.cfgs {
		want, err := expectedBody(ctx, ds, c.oracle)
		if err != nil {
			return err
		}
		status, err := post(cl.client, cl.url+"/form", c.body, &buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK || !bytes.Equal(buf.Bytes(), want) {
			return fmt.Errorf("final /form %s after %d upsert batches: status %d, answer differs from the in-process replay", c.body, written, status)
		}
	}
	return nil
}

// phase summarizes the samples of one or more chunks.
type phase struct {
	n, ok      int
	elapsed    time.Duration
	reads      []float64 // ok /form latencies, ms, ascending
	writes     []float64 // ok upsert latencies, ms, ascending
	failures   []string
	throughput float64
}

func summarize(chunks ...chunk) phase {
	var p phase
	for _, c := range chunks {
		p.elapsed += c.elapsed
		p.failures = append(p.failures, c.failures...)
		for _, s := range c.samples {
			p.n++
			if !s.ok {
				continue
			}
			p.ok++
			if s.write {
				p.writes = append(p.writes, ms(s.lat))
			} else {
				p.reads = append(p.reads, ms(s.lat))
			}
		}
	}
	slices.Sort(p.reads)
	slices.Sort(p.writes)
	if p.elapsed > 0 {
		p.throughput = float64(p.ok) / p.elapsed.Seconds()
	}
	return p
}

// windows splits a chunk into consecutive windows of length w and
// returns each full window's completion rate, and the /form p50 (ms)
// of each full window that completed a read.
func windows(ch chunk, w time.Duration) (p50, rps []float64) {
	n := int(ch.elapsed / w)
	lats := make([][]float64, n)
	count := make([]int, n)
	for _, s := range ch.samples {
		i := int(s.end / w)
		if i >= n || !s.ok {
			continue
		}
		count[i]++
		if !s.write {
			lats[i] = append(lats[i], ms(s.lat))
		}
	}
	for i := range lats {
		rps = append(rps, float64(count[i])/w.Seconds())
		if len(lats[i]) > 0 {
			slices.Sort(lats[i])
			p50 = append(p50, percentile(lats[i], 0.5))
		}
	}
	return p50, rps
}

// account adds a phase's requests to the outcome.
func (o *outcome) account(p phase) {
	o.attempted += int64(p.n)
	o.failed += int64(p.n - p.ok)
	if p.n != p.ok {
		o.correct = false
		o.failures = append(o.failures, p.failures...)
	}
}

// untraced is the end-to-end measurement.
func (b *bench) untraced() (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var cl *cluster
	for r := 0; r < setupReps; r++ {
		c, d, err := b.startCluster(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if r == setupReps-1 {
			cl = c
			break
		}
		b.stopCluster(c)
	}
	defer b.stopCluster(cl)

	st := &loopState{seq: b.seq}
	start, err := b.snapshot(cl, false)
	if err != nil {
		return nil, err
	}
	ch := b.closedLoop(cl, st, b.dur, nil)
	end, err := b.snapshot(cl, true)
	if err != nil {
		return nil, err
	}
	var hwm int64
	var cpu time.Duration
	for i, p := range cl.procs {
		kb, err := procHWM(p.pid())
		if err != nil {
			return nil, err
		}
		hwm += kb
		cpu += end.cpu[i] - start.cpu[i]
	}
	p := summarize(ch)
	out.account(p)
	m := b.meta
	m.Values["window_p50_ms"], m.Values["window_rps"] = windows(ch, time.Second/2)
	_, err = b.daemonChecks(cl, end)
	out.fail(err)
	if b.w.writes > 0 {
		out.fail(b.checkFinal(context.Background(), cl, st.written))
		out.printf("  upserts: %d batches acknowledged, p50 %.4f ms (n=%d)", st.written, percentile(p.writes, 0.5), len(p.writes))
	}

	v := out.values
	v["setup_s"] = median(setups)
	m.Samples["setup_s"], m.Values["setup_s"] = len(setups), setups
	v["throughput_rps"] = p.throughput
	m.Samples["throughput_rps"] = p.ok
	v["form_p50_ms"] = percentile(p.reads, 0.5)
	m.Samples["form_p50_ms"] = len(p.reads)
	v["form_tail_ms"] = percentile(p.reads, b.w.tail)
	m.Samples["form_tail_ms"] = len(p.reads)
	for _, q := range tailCandidates {
		if len(p.reads) > 0 {
			m.Values["form_tail_ms"] = append(m.Values["form_tail_ms"], percentile(p.reads, q))
		}
	}
	nb := beyond(len(p.reads), b.w.tail)
	out.printf("  form_tail_ms is p%g of %d samples, %d beyond it", b.w.tail*100, len(p.reads), nb)
	if top, ok := tailPercentile(len(p.reads), tailCandidates); ok {
		out.printf("  the sample supports up to p%g: %.4f ms", top*100, percentile(p.reads, top))
	}
	if nb < minBeyond {
		m.Notes = append(m.Notes, fmt.Sprintf("form_tail_ms: only %d samples beyond p%g", nb, b.w.tail*100))
	}
	if p.ok > 0 {
		v["cpu_ms_per_req"] = ms(cpu) / float64(p.ok)
	}
	m.Samples["cpu_ms_per_req"] = p.ok
	v["rss_mb"] = float64(hwm) / 1024
	m.Samples["rss_mb"] = len(cl.procs)
	if p.n > 0 {
		v["ok_frac"] = float64(p.ok) / float64(p.n)
	}
	m.Samples["ok_frac"] = p.n
	return out, nil
}

// validate fails the outcome if a reported value is not a number.
func (b *bench) validate(out *outcome) {
	defs := endToEnd
	if b.o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v := out.values[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			out.fail(fmt.Errorf("metric %s is %v", d.name, v))
			out.values[d.name] = 0
		}
	}
}
