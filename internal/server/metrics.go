package server

import (
	"io"
	"net/http"
	"strings"
	"time"

	"groupform/internal/core"
	"groupform/internal/metrics"
)

// endpointMetrics is the per-endpoint instrumentation every handler
// runs behind: a request counter, a non-2xx counter, and the latency
// histogram GET /metrics exposes (and loadgen scrapes to put the
// server-side p99 next to its client-observed one).
type endpointMetrics struct {
	name     string // the endpoint="..." label value
	requests metrics.Counter
	errors   metrics.Counter
	latency  metrics.Histogram
	// degraded counts 200 responses that carried a quality
	// certificate instead of a complete result (anytime solves cut
	// short by their deadline or quality target). Only the solve
	// endpoints ever move it.
	degraded metrics.Counter
}

// serverMetrics aggregates the Server's observability state. All of
// it is atomics — handlers touch it lock-free on the hot path and
// GET /metrics snapshots it without stopping traffic.
type serverMetrics struct {
	form         endpointMetrics
	batch        endpointMetrics
	solve        endpointMetrics
	upload       endpointMetrics
	upsert       endpointMetrics
	shardBuckets endpointMetrics
	shardScores  endpointMetrics

	// shed counts requests refused at the admission gate (503).
	shed metrics.Counter
	// binaryResponses counts /form responses served in the binary
	// wire format (the zero-copy path).
	binaryResponses metrics.Counter
	// scratchCreated counts scratches minted by the pool; together
	// with the leased gauge it bounds pool occupancy: created -
	// leased scratches are idle in (or GC'd from) the pool.
	scratchCreated metrics.Counter
	// degradedGap distributes the relative quality gap (gap / bound)
	// of degraded responses across linear [0, 1] buckets: mass near 0
	// means deadlines are cutting solves that were nearly done.
	degradedGap metrics.RatioHistogram
}

// observeDegraded records a degraded (200-with-certificate) response
// against its endpoint; a nil Partial — a complete result — records
// nothing, keeping the call free on the warm path.
func (s *Server) observeDegraded(em *endpointMetrics, p *core.Partial) {
	if p == nil {
		return
	}
	em.degraded.Inc()
	r := 0.0
	if p.Bound != 0 {
		r = p.Gap / p.Bound
	}
	s.met.degradedGap.Observe(r)
}

func (m *serverMetrics) init() {
	m.form.name = "form"
	m.batch.name = "form_batch"
	m.solve.name = "solve"
	m.upload.name = "upload"
	m.upsert.name = "upsert"
	m.shardBuckets.name = "shard_buckets"
	m.shardScores.name = "shard_scores"
}

func (m *serverMetrics) endpoints() [7]*endpointMetrics {
	return [7]*endpointMetrics{&m.form, &m.batch, &m.solve, &m.upload, &m.upsert, &m.shardBuckets, &m.shardScores}
}

// statusWriter captures the status code a handler writes so the
// instrument wrapper can count errors without re-deriving them. It
// is pooled: the wrapper runs on every request of every endpoint,
// and a heap-allocated decorator per request would charge the whole
// API an alloc for the privilege of being observed.
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

// instrument wraps h with the per-endpoint accounting: request
// count, wall-clock latency, error count by observed status. With
// adaptive set (the solve endpoints), completed requests also feed
// the admission controller — sheds are excluded there, because an
// instant 503 says nothing about solve latency.
func (s *Server) instrument(em *endpointMetrics, adaptive bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Inc()
		sw := s.swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, 0
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		status := sw.status
		sw.ResponseWriter = nil
		s.swPool.Put(sw)
		em.latency.Observe(d)
		if status >= 400 {
			em.errors.Inc()
		}
		if adaptive && status != http.StatusServiceUnavailable {
			s.observeAdmission(d)
		}
	}
}

// contentTypeMetrics is the Prometheus text exposition content type.
const contentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics serves GET /metrics: the Prometheus text exposition
// of every counter, gauge and histogram the server keeps. The page
// is rebuilt per scrape — scrapes are rare (seconds apart) next to
// solves (thousands per second), so this endpoint buys its
// simplicity with allocations the hot path never pays.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.Grow(1 << 12)

	metrics.WriteHeader(&b, "groupform_requests_total", "counter",
		"Requests received, by endpoint.")
	for _, em := range s.met.endpoints() {
		metrics.WriteCounter(&b, "groupform_requests_total",
			`endpoint="`+em.name+`"`, em.requests.Value())
	}
	metrics.WriteHeader(&b, "groupform_request_errors_total", "counter",
		"Non-2xx responses, by endpoint.")
	for _, em := range s.met.endpoints() {
		metrics.WriteCounter(&b, "groupform_request_errors_total",
			`endpoint="`+em.name+`"`, em.errors.Value())
	}
	metrics.WriteHeader(&b, "groupform_degraded_total", "counter",
		"Degraded 200 responses (anytime incumbents with a certificate), by endpoint.")
	for _, em := range s.met.endpoints() {
		metrics.WriteCounter(&b, "groupform_degraded_total",
			`endpoint="`+em.name+`"`, em.degraded.Value())
	}
	metrics.WriteHeader(&b, "groupform_request_duration_seconds", "histogram",
		"Request wall-clock latency, by endpoint.")
	for _, em := range s.met.endpoints() {
		metrics.WriteHistogram(&b, "groupform_request_duration_seconds",
			`endpoint="`+em.name+`"`, em.latency.Snapshot())
	}
	metrics.WriteHeader(&b, "groupform_degraded_gap_ratio", "histogram",
		"Relative quality gap (gap / bound) of degraded responses.")
	metrics.WriteRatioHistogram(&b, "groupform_degraded_gap_ratio", "",
		s.met.degradedGap.Snapshot())

	counts := s.reg.requestCounts()
	metrics.WriteHeader(&b, "groupform_dataset_requests_total", "counter",
		"Requests resolved against each dataset (solves and upserts).")
	for _, dc := range counts {
		metrics.WriteCounter(&b, "groupform_dataset_requests_total",
			`dataset="`+dc.name+`"`, dc.requests)
	}
	metrics.WriteHeader(&b, "groupform_engine_cache_total", "counter",
		"Engine cache activity per dataset: preference-list and bucket-partition builds and hits, cumulative across ingest.")
	for _, dc := range counts {
		for _, c := range []struct {
			labels string
			v      uint64
		}{
			{`cache="prefs",event="build"`, dc.cache.PrefBuilds},
			{`cache="prefs",event="hit"`, dc.cache.PrefHits},
			{`cache="partition",event="build"`, dc.cache.PartitionBuilds},
			{`cache="partition",event="hit"`, dc.cache.PartitionHits},
		} {
			metrics.WriteCounter(&b, "groupform_engine_cache_total",
				`dataset="`+dc.name+`",`+c.labels, int64(c.v))
		}
	}

	metrics.WriteHeader(&b, "groupform_inflight", "gauge",
		"Requests currently inside the admission gate.")
	metrics.WriteGauge(&b, "groupform_inflight", "", s.Inflight())
	metrics.WriteHeader(&b, "groupform_inflight_limit", "gauge",
		"Current admission limit (0 = unlimited; moves under -max-inflight=auto).")
	metrics.WriteGauge(&b, "groupform_inflight_limit", "", s.InflightLimit())
	metrics.WriteHeader(&b, "groupform_shed_total", "counter",
		"Requests refused with 503 at the admission gate.")
	metrics.WriteCounter(&b, "groupform_shed_total", "", s.met.shed.Value())

	metrics.WriteHeader(&b, "groupform_scratch_leased", "gauge",
		"Scratches currently leased from the pool; nonzero at idle means a leak.")
	metrics.WriteGauge(&b, "groupform_scratch_leased", "", s.LeasedScratches())
	metrics.WriteHeader(&b, "groupform_scratch_created_total", "counter",
		"Scratches ever minted by the pool.")
	metrics.WriteCounter(&b, "groupform_scratch_created_total", "", s.met.scratchCreated.Value())

	metrics.WriteHeader(&b, "groupform_binary_responses_total", "counter",
		"Form responses served in the binary wire format.")
	metrics.WriteCounter(&b, "groupform_binary_responses_total", "", s.met.binaryResponses.Value())

	w.Header().Set("Content-Type", contentTypeMetrics)
	io.WriteString(w, b.String())
}
