// Package server is the concurrent serving tier of the module: an
// HTTP/JSON facade over the solver Engine that turns the zero-alloc
// library call of PR 4 into a correct concurrent service. One Server
// holds a named Registry of engines (hot-swappable via POST
// /datasets/{name}, incrementally updatable via POST
// /datasets/{name}/ratings — see ingest.go), a sync.Pool of
// core.Scratch that keeps the warm
// serial /form solve section at 0 allocs/op, an optional max-inflight
// semaphore for backpressure, and per-request cancellation: the
// client disconnecting or a timeout_ms deadline expiring propagates
// through context into the solver's periodic checks and surfaces as
// the 499 "canceled" error body.
//
// Error contract: every non-2xx response is an ErrorBody whose Code
// classifies the failure the same way the library sentinels do —
// gferr.ErrBadConfig -> 400 bad_config, gferr.ErrTooLarge -> 413
// too_large, gferr.ErrCanceled -> 499 canceled — plus 404 not_found
// for unknown datasets, 503 overloaded when the inflight semaphore is
// saturated, and 500 internal for anything unclassified. Requests
// that opt into anytime formation ("anytime": true) soften the 499
// class: when the cut solve already holds a feasible incumbent, the
// response is 200 with degraded:true and a quality certificate
// (bound/gap/completed/total), and 499 remains only for cancellations
// that left nothing feasible.
//
// PR 8 adds the zero-copy binary wire path and first-class
// observability. POST /form negotiates the binary frame format of
// internal/wire per direction (Content-Type
// application/x-groupform-binary for requests, Accept for
// responses); the fully binary round trip serves a warm solve in
// ≤ 5 allocs/op (see wire.go). Every solve and ingest endpoint runs
// behind per-endpoint counters and latency histograms exposed in
// Prometheus text format at GET /metrics, and with Config.TargetP99
// set the inflight limit adapts to the observed p99 (see
// admission.go).
//
// cmd/groupformd wraps this package as a daemon; the facade
// re-exports it as groupform.Server.
package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/solver"
)

// Config parameterizes a Server. The zero value serves: no inflight
// cap, no default deadline, serial solves, 1 GiB upload cap.
type Config struct {
	// Workers is the default formation worker count applied to every
	// request that does not set its own (0 or 1 = serial — the
	// zero-alloc path — and negative = all CPUs).
	Workers int
	// MaxInflight caps concurrently served solve/upload requests;
	// excess requests are rejected immediately with 503 rather than
	// queued, so load sheds at the door instead of as timeouts deep
	// in the solver. 0 means unlimited (or, with TargetP99 set, an
	// adaptive starting point of twice the CPU count).
	MaxInflight int
	// TargetP99 turns on adaptive admission: the inflight limit
	// walks up and down (see admission.go) to keep the observed
	// p99 latency of the solve endpoints at or under this SLO.
	// MaxInflight, when also set, is only the starting point of the
	// walk. 0 disables adaptation.
	TargetP99 time.Duration
	// DefaultTimeout bounds every solve that does not carry its own
	// timeout_ms. 0 means unbounded.
	DefaultTimeout time.Duration
	// MaxUploadBytes caps POST /datasets/{name} bodies; larger
	// uploads are rejected with 413. 0 means the 1 GiB default.
	MaxUploadBytes int64
	// Scale validates uploaded ratings; the zero value means the
	// paper's 1-5 default scale.
	Scale dataset.Scale
	// CompactAfter is the overlay-upsert count past which an upsert
	// schedules a background compaction of its dataset; at 4x the
	// threshold the upsert compacts inline (backpressure). 0 means
	// the 4096 default; negative disables compaction.
	CompactAfter int
	// Shards > 0 puts the server in shard role: every dataset entering
	// the registry (AddDataset or upload) is sliced to the resident
	// users of shard Shard of Shards (dataset.ShardUsers) before its
	// engine is built, and ingestion upserts are rejected — a mutation
	// on one shard would break the partition invariant the router
	// relies on. The /shard/* endpoints are mounted regardless (a
	// non-sharded server answers them as the S=1 topology); see
	// shard.go. Shard must be in [0, Shards).
	Shard  int
	Shards int
}

// defaultMaxUpload is the upload cap when Config.MaxUploadBytes is 0.
const defaultMaxUpload = 1 << 30

// maxSolveBodyBytes caps /form, /form/batch and /solve request
// bodies. A solve request is a handful of scalars (a batch, a few
// thousand of them); 1 MiB is orders of magnitude of headroom while
// keeping a hostile body from buffering gigabytes into decodeJSON.
// Refused bodies surface as 413 too_large.
const maxSolveBodyBytes = 1 << 20

// Server is the HTTP serving layer. Create one with New, load
// datasets with AddDataset (boot) or POST /datasets/{name} (runtime),
// and mount it anywhere an http.Handler goes. A Server is safe for
// concurrent use; see the package comment for the endpoint and error
// contract.
type Server struct {
	cfg Config
	reg *Registry
	mux *http.ServeMux

	// scratch pools per-request formation state. sync.Pool keeps the
	// hot path contention-free (per-P caches, so the goroutine
	// serving a keep-alive connection tends to get the scratch it
	// just warmed); leased tracks outstanding leases so tests can
	// prove canceled requests never leak one.
	scratch sync.Pool
	leased  atomic.Int64

	// inflightN counts admitted requests; limit is the admission cap
	// (0 = unlimited), atomic so the adaptive controller can move it
	// under live traffic. adm is that controller's state.
	inflightN atomic.Int64
	limit     atomic.Int64
	adm       admissionState

	// met is the observability state behind GET /metrics; swPool
	// recycles the statusWriter decorator the instrument wrapper
	// puts on every request, and wireBufs the binary path's
	// request/response buffer pairs.
	met      serverMetrics
	swPool   sync.Pool
	wireBufs sync.Pool

	// ingest holds one *ingestState per dataset name (see ingest.go);
	// compactWG tracks background compactions for WaitCompactions.
	ingest    sync.Map
	compactWG sync.WaitGroup
}

// New builds a Server ready to mount. Datasets come later, via
// AddDataset or the upload endpoint — a Server with zero datasets is
// healthy and answers every solve with 404.
func New(cfg Config) *Server {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = defaultMaxUpload
	}
	if cfg.Scale == (dataset.Scale{}) {
		cfg.Scale = dataset.DefaultScale
	}
	s := &Server{cfg: cfg, reg: NewRegistry(), mux: http.NewServeMux()}
	s.met.init()
	s.scratch.New = func() any {
		s.met.scratchCreated.Inc()
		return core.NewScratch()
	}
	s.swPool.New = func() any { return new(statusWriter) }
	s.wireBufs.New = func() any { return new(wireBuf) }
	switch {
	case cfg.MaxInflight > 0:
		s.limit.Store(int64(cfg.MaxInflight))
	case cfg.TargetP99 > 0:
		s.limit.Store(defaultAdaptiveLimit())
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /datasets/{name}", s.instrument(&s.met.upload, false, s.handleUpload))
	s.mux.HandleFunc("POST /datasets/{name}/ratings", s.instrument(&s.met.upsert, false, s.handleUpsert))
	s.mux.HandleFunc("POST /form", s.instrument(&s.met.form, true, s.handleForm))
	s.mux.HandleFunc("POST /form/batch", s.instrument(&s.met.batch, true, s.handleFormBatch))
	s.mux.HandleFunc("POST /solve", s.instrument(&s.met.solve, true, s.handleSolve))
	s.mux.HandleFunc("POST /shard/buckets", s.instrument(&s.met.shardBuckets, true, s.handleShardBuckets))
	s.mux.HandleFunc("POST /shard/scores", s.instrument(&s.met.shardScores, true, s.handleShardScores))
	s.mux.HandleFunc("GET /shard/catalog", s.handleShardCatalog)
	// Routing failures must keep the JSON error contract, which
	// ServeMux's plain-text defaults would break: "/" catches unknown
	// paths (404), and a methodless registration per route outranks
	// "/" but loses to the method-specific pattern above, so a wrong
	// method lands there (405).
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"server: no such route "+r.URL.Path)
	})
	for _, p := range []string{"/healthz", "/datasets", "/datasets/{name}", "/datasets/{name}/ratings", "/form", "/form/batch", "/solve", "/metrics", "/shard/buckets", "/shard/scores", "/shard/catalog"} {
		s.mux.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusMethodNotAllowed, CodeBadMethod,
				"server: method "+r.Method+" not allowed on "+r.URL.Path)
		})
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// AddDataset loads ds into the registry under name (replacing any
// earlier engine, like the upload endpoint). On a shard-role server
// (Config.Shards > 0) the dataset is first sliced to this shard's
// resident users.
func (s *Server) AddDataset(name string, ds *dataset.Dataset) error {
	sliced, err := s.shardSlice(ds)
	if err != nil {
		return err
	}
	return s.reg.Add(name, sliced)
}

// Datasets returns the loaded dataset names, sorted.
func (s *Server) Datasets() []string { return s.reg.Names() }

// LeasedScratches reports the scratches currently leased from the
// pool — 0 whenever no request is mid-solve. Exposed so the
// cancellation tests can prove error paths return their lease.
func (s *Server) LeasedScratches() int64 { return s.leased.Load() }

// Inflight reports the requests currently inside the semaphore.
func (s *Server) Inflight() int64 { return s.inflightN.Load() }

// leaseScratch takes a scratch from the pool. Every lease must be
// returned via releaseScratch exactly once, after the response bytes
// that alias the scratch's arenas have been written.
func (s *Server) leaseScratch() *core.Scratch {
	s.leased.Add(1)
	return s.scratch.Get().(*core.Scratch)
}

func (s *Server) releaseScratch(sc *core.Scratch) {
	s.scratch.Put(sc)
	s.leased.Add(-1)
}

// formOnScratch is the handler's solve section, isolated so the
// steady-state test can pin it at 0 allocs/op warm: lease a pooled
// scratch and run the cached-preference-list formation into it. The
// caller owns releasing sc (even on error) once it has consumed res —
// res is carved from sc, so it is valid only until sc's next use.
func (s *Server) formOnScratch(ctx context.Context, eng *solver.Engine, cfg core.Config) (res *core.Result, sc *core.Scratch, err error) {
	sc = s.leaseScratch()
	res, err = eng.FormInto(ctx, cfg, sc)
	return res, sc, err
}

// SolveContext resolves a request deadline against an operator
// ceiling: timeoutMS when given, the ceiling otherwise — and never
// longer than the ceiling. A client used to be able to send a
// timeout_ms far past DefaultTimeout and hold a scratch lease beyond
// the operator's configured cap; now the requested value clamps to
// the ceiling, and effectiveMS reports the clamped deadline (in
// milliseconds) when — and only when — clamping changed the request,
// so handlers can surface it in the response. A negative timeoutMS
// is a bad request; 0 means "no per-request deadline" (the ceiling
// still applies). Exported for the shard router, which enforces the
// same contract on its own -timeout ceiling.
func SolveContext(parent context.Context, timeoutMS int64, ceiling time.Duration) (ctx context.Context, cancel context.CancelFunc, effectiveMS int64, err error) {
	if timeoutMS < 0 {
		return nil, nil, 0, gferr.BadConfigf("server: timeout_ms must be non-negative, got %d", timeoutMS)
	}
	d := ceiling
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if ceiling > 0 && d > ceiling {
			d = ceiling
			effectiveMS = int64(ceiling / time.Millisecond)
		}
	}
	if d <= 0 {
		return parent, func() {}, 0, nil
	}
	ctx, cancel = context.WithTimeout(parent, d)
	return ctx, cancel, effectiveMS, nil
}

// solveCtx applies SolveContext to the request: timeout_ms against
// the server's DefaultTimeout ceiling, on top of the
// client-disconnect cancellation of r.Context().
func (s *Server) solveCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc, int64, error) {
	return SolveContext(r.Context(), timeoutMS, s.cfg.DefaultTimeout)
}

// resolve maps a request's dataset name to its engine (counting the
// request against the dataset) or writes the 404 error body.
func (s *Server) resolve(w http.ResponseWriter, name string) (*solver.Engine, string, bool) {
	ent, eng, resolved, ok := s.reg.entry(name)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, notFoundMsg(name, s.reg.Names()))
		return nil, "", false
	}
	ent.requests.Inc()
	return eng, resolved, true
}

// admit claims an inflight slot or writes the 503 error body.
func (s *Server) admit(w http.ResponseWriter) bool {
	if !s.acquire() {
		s.met.shed.Inc()
		writeError(w, http.StatusServiceUnavailable, CodeOverloaded,
			"server: max-inflight requests already being served")
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:   "ok",
		Datasets: s.reg.Names(),
		Inflight: s.Inflight(),
	}
	if s.cfg.Shards > 0 {
		si := s.shardInfo()
		resp.Shard = &si
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Infos())
}

// handleForm serves POST /form: the hot path. It claims the
// admission slot and hands the request to serveForm, which decodes
// either encoding, solves on a pooled scratch and encodes straight
// out of the scratch's arenas (zero-copy).
func (s *Server) handleForm(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	s.serveForm(w, r, isBinaryRequest(r), wantsBinary(r))
}

// handleFormBatch serves POST /form/batch: many parameter sets
// against one dataset on a single scratch lease and one deadline.
// Items fail independently; each result is copied out of the scratch
// before the next solve reuses it.
func (s *Server) handleFormBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req BatchRequest
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxSolveBodyBytes), &req); err != nil {
		writeSolverError(w, err)
		return
	}
	if len(req.Requests) == 0 {
		writeSolverError(w, gferr.BadConfigf("server: batch carries no requests"))
		return
	}
	eng, name, ok := s.resolve(w, req.Dataset)
	if !ok {
		return
	}
	ctx, cancel, effMS, err := s.solveCtx(r, req.TimeoutMS)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	defer cancel()
	sc := s.leaseScratch()
	defer s.releaseScratch(sc)
	items := make([]BatchItem, len(req.Requests))
	status := http.StatusOK
	for i, p := range req.Requests {
		// Between items is the cheap place to notice the shared
		// deadline (or the client) is gone: stop before burning the
		// next solve, not partway into it.
		if ctxErr := ctx.Err(); ctxErr != nil {
			canceled := &ErrorBody{Code: CodeCanceled,
				Error: "server: batch canceled before this item: " + ctxErr.Error()}
			for j := i; j < len(items); j++ {
				items[j] = BatchItem{Error: canceled}
			}
			status = StatusClientClosedRequest
			break
		}
		cfg, err := p.config(s.cfg.Workers)
		if err == nil {
			var res *core.Result
			if res, err = eng.FormInto(ctx, cfg, sc); err == nil {
				s.observeDegraded(&s.met.batch, res.Partial)
				items[i] = BatchItem{Result: toFormResponse(name, res, true)}
				continue
			}
		}
		st, code := errorStatus(err)
		items[i] = BatchItem{Error: &ErrorBody{Code: code, Error: err.Error()}}
		if st == StatusClientClosedRequest {
			// The shared deadline is gone; every later item would
			// fail identically, so report them canceled and stop.
			for j := i + 1; j < len(items); j++ {
				items[j] = items[i]
			}
			status = StatusClientClosedRequest
			break
		}
	}
	// A batch cut short by cancellation keeps its partial outcomes in
	// the body but surfaces the cut on the status line: 499, the same
	// classification a single canceled solve gets.
	writeJSON(w, status, BatchResponse{Dataset: name, Results: items, EffectiveTimeoutMS: effMS})
}

// handleSolve serves POST /solve: any registry algorithm. No scratch
// pooling — only the greedy Engine path has an Into variant — but the
// grd algorithm still rides the engine's preference-list cache.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req SolveRequest
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxSolveBodyBytes), &req); err != nil {
		writeSolverError(w, err)
		return
	}
	if q := r.URL.Query().Get("algo"); q != "" {
		req.Algo = q
	}
	if req.Algo == "" {
		req.Algo = "grd"
	}
	eng, name, ok := s.resolve(w, req.Dataset)
	if !ok {
		return
	}
	cfg, err := req.config(s.cfg.Workers)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	ctx, cancel, effMS, err := s.solveCtx(r, req.TimeoutMS)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	defer cancel()
	res, err := eng.Solve(ctx, req.Algo, cfg, solver.WithSeed(req.Seed))
	if err != nil {
		writeSolverError(w, err)
		return
	}
	s.observeDegraded(&s.met.solve, res.Partial)
	resp := toFormResponse(name, res, false)
	resp.EffectiveTimeoutMS = effMS
	writeJSON(w, http.StatusOK, resp)
}

// handleUpload serves POST /datasets/{name}: parse the body with the
// sniffing dataset loader (binary or CSV), build a fresh engine, and
// atomically swap it into the registry. In-flight solves finish on
// the engine they resolved.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	name := r.PathValue("name")
	if err := validDatasetName(name); err != nil {
		writeSolverError(w, err)
		return
	}
	// The loaders flatten their reader's error into a message (binary
	// truncation reports wrap ErrBadConfig, not the cause), so the
	// limit hit is recorded on the reader itself rather than fished
	// back out of the load error.
	body := &limitTracker{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)}
	ds, err := dataset.Load(body, s.cfg.Scale)
	if err != nil {
		if body.hitLimit {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				gferr.TooLargef("server: upload exceeds %d bytes", s.cfg.MaxUploadBytes).Error())
			return
		}
		// A client abort mid-upload surfaces as a read error inside
		// the loaders; classify it as the cancellation it is, not as
		// a malformed dataset.
		if r.Context().Err() != nil {
			writeError(w, StatusClientClosedRequest, CodeCanceled,
				"server: upload canceled: "+r.Context().Err().Error())
			return
		}
		// Malformed binary streams wrap ErrBadConfig already; CSV
		// parse errors are plain — classify both as bad requests.
		writeError(w, http.StatusBadRequest, CodeBadConfig, err.Error())
		return
	}
	// A shard-role server keeps only its resident slice; the response
	// counts report what this server actually serves.
	ds, err = s.shardSlice(ds)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	eng, err := solver.NewEngine(ds)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	replaced := s.reg.Swap(name, eng)
	st := http.StatusCreated
	if replaced {
		st = http.StatusOK
	}
	writeJSON(w, st, UploadResponse{
		Dataset:  name,
		Users:    ds.NumUsers(),
		Items:    ds.NumItems(),
		Ratings:  ds.NumRatings(),
		Replaced: replaced,
	})
}

// limitTracker remembers whether its MaxBytesReader refused a read,
// surviving the loaders' error flattening.
type limitTracker struct {
	r        io.Reader
	hitLimit bool
}

func (t *limitTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		t.hitLimit = true
	}
	return n, err
}
