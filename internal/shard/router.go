package shard

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"groupform/internal/core"
	"groupform/internal/metrics"
	"groupform/internal/server"
	"groupform/internal/wire"
)

// CodeShardUnavailable classifies a routed solve that could not reach
// enough shards: transport faults, shard 5xx, or per-shard timeouts.
// Anytime requests soften this to a degraded 200 when at least one
// shard answered the scatter.
const CodeShardUnavailable = "shard_unavailable"

// maxRouterBodyBytes caps POST /form bodies on the router — same
// envelope, same budget as the single-node solve endpoints.
const maxRouterBodyBytes = 1 << 20

// Config parameterizes a Router.
type Config struct {
	// Shards are the shard base URLs in shard order: Shards[i] must
	// serve slice i of len(Shards) (groupformd -shard i/S).
	Shards []string
	// ShardTimeout bounds each individual shard call (the scatter and
	// the gather alike); 0 means 30s.
	ShardTimeout time.Duration
	// Retries is how many times an availability-faulted shard call is
	// retried (transport errors and 5xx only); negative means 0.
	Retries int
	// Timeout is the routed-solve ceiling, the router's analogue of
	// server.Config.DefaultTimeout: a request's timeout_ms clamps to
	// it, and requests without one inherit it. 0 means unbounded.
	Timeout time.Duration
}

// Router is the stateless scatter-gather front of the sharded
// topology. It holds no ratings: POST /form fans out to the shard
// set (POST /shard/buckets), merges the candidate buckets through
// core.MergeShardBuckets, finalizes through core.FinalizeMerged with
// the gather oracle, which asks every rating probe of the plan in one
// POST /shard/scores per shard, and answers the single-node
// FormResponse envelope — byte-identical to one groupformd over the
// whole dataset under LM (see the package comment). Mount it like a
// Server; it is safe for concurrent use.
type Router struct {
	cfg Config
	c   *Client
	mux *http.ServeMux

	met routerMetrics
}

// routerMetrics is the router's observability state: the same
// endpoint="form" request/error/latency families a groupformd
// exposes (so one loadgen scrape handles both), plus per-shard
// upstream counters.
type routerMetrics struct {
	requests metrics.Counter
	errors   metrics.Counter
	degraded metrics.Counter
	latency  metrics.Histogram

	shardRequests []metrics.Counter
	shardErrors   []metrics.Counter
}

// NewRouter validates the topology and builds the handler.
func NewRouter(cfg Config) (*Router, error) {
	c, err := NewClient(cfg.Shards, cfg.ShardTimeout, cfg.Retries)
	if err != nil {
		return nil, err
	}
	rt := &Router{cfg: cfg, c: c, mux: http.NewServeMux()}
	rt.met.shardRequests = make([]metrics.Counter, c.Shards())
	rt.met.shardErrors = make([]metrics.Counter, c.Shards())
	rt.mux.HandleFunc("POST /form", rt.handleForm)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	// Same JSON routing-failure contract as the server mux: "/" is
	// the 404, methodless per-route registrations are the 405s.
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound,
			"router: no such route "+r.URL.Path)
	})
	for _, p := range []string{"/form", "/healthz", "/metrics"} {
		rt.mux.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) {
			server.WriteError(w, http.StatusMethodNotAllowed, server.CodeBadMethod,
				"router: method "+r.Method+" not allowed on "+r.URL.Path)
		})
	}
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// scatterResult is one shard's scatter outcome.
type scatterResult struct {
	resp *wire.ShardBuckets
	err  error
}

// handleForm serves POST /form on the router.
func (rt *Router) handleForm(w http.ResponseWriter, r *http.Request) {
	rt.met.requests.Inc()
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	rt.routeForm(sw, r)
	rt.met.latency.Observe(time.Since(start))
	if sw.status >= 400 {
		rt.met.errors.Inc()
	}
}

func (rt *Router) routeForm(w http.ResponseWriter, r *http.Request) {
	var req server.FormRequest
	if err := server.DecodeJSON(r, w, maxRouterBodyBytes, &req); err != nil {
		server.WriteSolverError(w, err)
		return
	}
	// Validate the parameters before burning a fan-out; 0 default
	// workers — the router does no local formation, and a worker
	// count only sizes the shards' cold preference-list builds.
	cfg, err := req.Config(0)
	if err != nil {
		server.WriteSolverError(w, err)
		return
	}
	ctx, cancel, effMS, err := server.SolveContext(r.Context(), req.TimeoutMS, rt.cfg.Timeout)
	if err != nil {
		server.WriteSolverError(w, err)
		return
	}
	defer cancel()

	// Scatter: every shard bucketizes its resident slice in parallel.
	S := rt.c.Shards()
	results := make([]scatterResult, S)
	var wg sync.WaitGroup
	for i := 0; i < S; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt.met.shardRequests[i].Inc()
			results[i].resp, results[i].err = rt.c.buckets(ctx, i, req)
			if results[i].err != nil {
				rt.met.shardErrors[i].Inc()
			}
		}(i)
	}
	wg.Wait()

	// Gather bookkeeping in ascending shard order — the order that
	// makes the merge (and the AV partial-sum association) canonical
	// regardless of which response arrived first.
	var (
		responding []int
		passes     [][]core.ShardBucket
		contribs   []float64
		users      int
		name       string
		firstFault error
	)
	for i := 0; i < S; i++ {
		if err := results[i].err; err != nil {
			if !Unavailable(err) {
				// A 4xx (bad config, unknown dataset) or the router's
				// own deadline: the request itself is the problem, and
				// it is the same problem on every shard — propagate
				// the first one verbatim.
				rt.writeShardError(w, err)
				return
			}
			if firstFault == nil {
				firstFault = err
			}
			continue
		}
		resp := results[i].resp
		if name == "" {
			name = resp.Dataset
		}
		responding = append(responding, i)
		contribs = append(contribs, resp.Bound)
		users += resp.Users
		passes = append(passes, resp.Buckets)
	}
	if firstFault != nil && (!req.Anytime || len(responding) == 0) {
		// Either nothing answered, or the client did not opt into
		// partial coverage: a complete answer is impossible, say so.
		server.WriteError(w, http.StatusServiceUnavailable, CodeShardUnavailable,
			"router: "+strconv.Itoa(S-len(responding))+" of "+strconv.Itoa(S)+
				" shards unavailable: "+firstFault.Error())
		return
	}

	// Merge + finalize: the exact single-node code path, with rating
	// probes answered over HTTP by the responding shards.
	merged := core.MergeShardBuckets(passes, cfg)
	o := newGatherOracle(rt.c, req.Dataset, responding, cfg)
	res, err := core.FinalizeMerged(ctx, cfg, merged, o)
	if err != nil {
		rt.writeShardError(w, err)
		return
	}
	if len(responding) < S {
		// Degraded envelope: the groups cover the responding shards'
		// users only, certified against the sound bound for that
		// sub-population (core.CombineBounds over the responders'
		// contributions) — the same certificate shape anytime solves
		// return under deadline pressure.
		bound := core.CombineBounds(contribs, users, cfg)
		res.Partial = &core.Partial{
			Bound:     bound,
			Gap:       bound - res.Objective,
			Completed: len(responding),
			Total:     S,
		}
		rt.met.degraded.Inc()
	}
	resp := server.ToFormResponse(name, res)
	resp.EffectiveTimeoutMS = effMS
	server.WriteJSON(w, http.StatusOK, resp)
}

// writeShardError maps a routed-solve failure onto the wire: shard
// CallErrors propagate their classification verbatim, transport
// faults become 503 shard_unavailable, and everything else (context
// expiry, topology mismatches) takes the standard solver
// classification.
func (rt *Router) writeShardError(w http.ResponseWriter, err error) {
	switch e := err.(type) {
	case *CallError:
		server.WriteError(w, e.Status, e.Code, e.Error())
		return
	case *unreachableError:
		server.WriteError(w, http.StatusServiceUnavailable, CodeShardUnavailable, e.Error())
		return
	}
	server.WriteSolverError(w, err)
}

// ShardHealth is one upstream's state in the router's health report.
type ShardHealth struct {
	URL    string `json:"url"`
	Status string `json:"status"` // ok | unreachable | mismatched
	// Shard echoes the shard's self-reported topology position when
	// it has one.
	Shard *server.ShardInfo `json:"shard,omitempty"`
	Error string            `json:"error,omitempty"`
}

// RouterHealthResponse is the body of the router's GET /healthz:
// "ok" only when every shard answered and none disagrees with its
// configured position.
type RouterHealthResponse struct {
	Status string        `json:"status"` // ok | degraded
	Shards []ShardHealth `json:"shards"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	S := rt.c.Shards()
	out := RouterHealthResponse{Status: "ok", Shards: make([]ShardHealth, S)}
	var wg sync.WaitGroup
	for i := 0; i < S; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := ShardHealth{URL: rt.cfg.Shards[i], Status: "ok"}
			h, err := rt.c.health(r.Context(), i)
			switch {
			case err != nil:
				sh.Status, sh.Error = "unreachable", err.Error()
			case h.Shard != nil:
				sh.Shard = h.Shard
				if h.Shard.Shard != i || h.Shard.Shards != S {
					// The process answering this URL serves a
					// different slice than the router would credit it
					// with — routed results would silently drop or
					// double-count users.
					sh.Status = "mismatched"
				}
			}
			out.Shards[i] = sh
		}(i)
	}
	wg.Wait()
	status := http.StatusOK
	for _, sh := range out.Shards {
		if sh.Status != "ok" {
			out.Status = "degraded"
			status = http.StatusServiceUnavailable
			break
		}
	}
	server.WriteJSON(w, status, out)
}

// handleMetrics serves the router's Prometheus text exposition. The
// endpoint="form" families share names with groupformd's so loadgen's
// scrape reads router and shard alike; the groupform_router_* series
// add the per-upstream view.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.Grow(1 << 11)
	metrics.WriteHeader(&b, "groupform_requests_total", "counter",
		"Requests received, by endpoint.")
	metrics.WriteCounter(&b, "groupform_requests_total", `endpoint="form"`, rt.met.requests.Value())
	metrics.WriteHeader(&b, "groupform_request_errors_total", "counter",
		"Non-2xx responses, by endpoint.")
	metrics.WriteCounter(&b, "groupform_request_errors_total", `endpoint="form"`, rt.met.errors.Value())
	metrics.WriteHeader(&b, "groupform_degraded_total", "counter",
		"Degraded 200 responses (partial shard coverage with a certificate).")
	metrics.WriteCounter(&b, "groupform_degraded_total", `endpoint="form"`, rt.met.degraded.Value())
	metrics.WriteHeader(&b, "groupform_request_duration_seconds", "histogram",
		"Request wall-clock latency, by endpoint.")
	metrics.WriteHistogram(&b, "groupform_request_duration_seconds", `endpoint="form"`,
		rt.met.latency.Snapshot())

	metrics.WriteHeader(&b, "groupform_router_shard_requests_total", "counter",
		"Scatter calls issued, by shard.")
	for i := range rt.met.shardRequests {
		metrics.WriteCounter(&b, "groupform_router_shard_requests_total",
			`shard="`+strconv.Itoa(i)+`"`, rt.met.shardRequests[i].Value())
	}
	metrics.WriteHeader(&b, "groupform_router_shard_errors_total", "counter",
		"Failed scatter calls, by shard.")
	for i := range rt.met.shardErrors {
		metrics.WriteCounter(&b, "groupform_router_shard_errors_total",
			`shard="`+strconv.Itoa(i)+`"`, rt.met.shardErrors[i].Value())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// statusWriter records the status a handler wrote (router-local twin
// of the server's pooled decorator; router traffic is a fan-out per
// request, one small allocation is noise).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// compile-time interface check: the gather oracle is a ScoreOracle.
var _ core.ScoreOracle = (*gatherOracle)(nil)
