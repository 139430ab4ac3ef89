package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"groupform/internal/metrics"
	"groupform/internal/wire"
)

func scrape(t testing.TB, s *Server) string {
	t.Helper()
	rec := doJSON(t, s, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d (%s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != contentTypeMetrics {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, contentTypeMetrics)
	}
	return rec.Body.String()
}

// TestMetricsEndpoint drives a little of everything through the
// server and asserts the scrape reflects it: per-endpoint counters
// and populated histograms, per-dataset counts and engine cache
// counters, the binary-response counter, and a zero leased gauge once
// traffic stops.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	p := FormParams{K: 3, L: 6, Semantics: "lm", Aggregation: "min"}
	for i := 0; i < 3; i++ {
		wantStatus(t, doJSON(t, s, "POST", "/form", FormRequest{Dataset: "main", FormParams: p}), http.StatusOK, "")
	}
	frame := wire.AppendFormRequest(nil, wire.FormRequest{Dataset: []byte("main"),
		K: 3, L: 6, Semantics: 0, Aggregation: 1})
	if rec := doWire(t, s, frame, true, true); rec.Code != http.StatusOK {
		t.Fatalf("binary form status = %d", rec.Code)
	}
	// One classified failure for the error counter.
	wantStatus(t, doJSON(t, s, "POST", "/form", FormRequest{Dataset: "main",
		FormParams: FormParams{K: 3, L: 6, Semantics: "bogus", Aggregation: "min"}}),
		http.StatusBadRequest, CodeBadConfig)
	wantStatus(t, doJSON(t, s, "POST", "/solve", SolveRequest{Dataset: "main", FormParams: p}), http.StatusOK, "")

	text := scrape(t, s)
	for _, want := range []string{
		`groupform_requests_total{endpoint="form"} 5`,
		`groupform_request_errors_total{endpoint="form"} 1`,
		`groupform_requests_total{endpoint="solve"} 1`,
		// 6, not 5: the bad-config form request resolves the dataset
		// before its vocabulary fails validation.
		`groupform_dataset_requests_total{dataset="main"} 6`,
		`groupform_binary_responses_total 1`,
		`groupform_scratch_leased 0`,
		`groupform_shed_total 0`,
		// Five LM-MIN K=3 solves: the first builds the preference
		// lists, the second fills the bucket partition, and the JSON
		// form, the binary form and the grd solve after it start from
		// the partition.
		`groupform_engine_cache_total{dataset="main",cache="prefs",event="build"} 1`,
		`groupform_engine_cache_total{dataset="main",cache="prefs",event="hit"} 4`,
		`groupform_engine_cache_total{dataset="main",cache="partition",event="build"} 1`,
		`groupform_engine_cache_total{dataset="main",cache="partition",event="hit"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q in:\n%s", want, text)
		}
	}
	h, err := metrics.ParseHistogram(text, "groupform_request_duration_seconds", `endpoint="form"`)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 5 {
		t.Fatalf("form histogram count = %d, want 5", h.Count)
	}
	if q := h.Quantile(0.99); q <= 0 {
		t.Fatalf("form p99 = %v, want > 0", q)
	}
}

// TestMetricsShed: a full admission gate sheds with 503 and the shed
// counter records it.
func TestMetricsShed(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInflight: 1})
	if !s.acquire() {
		t.Fatal("first acquire refused")
	}
	rec := doJSON(t, s, "POST", "/form", FormRequest{Dataset: "main",
		FormParams: FormParams{K: 3, L: 6, Semantics: "lm", Aggregation: "min"}})
	wantStatus(t, rec, http.StatusServiceUnavailable, CodeOverloaded)
	s.release()
	text := scrape(t, s)
	if !strings.Contains(text, "groupform_shed_total 1") {
		t.Fatalf("shed not counted:\n%s", text)
	}
	if !strings.Contains(text, "groupform_inflight_limit 1") {
		t.Fatalf("limit gauge wrong:\n%s", text)
	}
	// The refused request still counted against the endpoint, both as
	// a request and as an error.
	if !strings.Contains(text, `groupform_requests_total{endpoint="form"} 1`) ||
		!strings.Contains(text, `groupform_request_errors_total{endpoint="form"} 1`) {
		t.Fatalf("shed request not reflected in endpoint counters:\n%s", text)
	}
}

// TestMetricsUnderConcurrentTraffic hammers solves, upserts and
// scrapes together (meaningful mostly under -race) and then checks
// the totals add up and nothing leaked.
func TestMetricsUnderConcurrentTraffic(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const goroutines, per = 8, 20
	frame := wire.AppendFormRequest(nil, wire.FormRequest{Dataset: []byte("main"),
		K: 3, L: 6, Semantics: 0, Aggregation: 1})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch {
				case i%5 == 4:
					scrape(t, s)
				case g%2 == 0:
					if rec := doWire(t, s, frame, true, true); rec.Code != http.StatusOK {
						t.Errorf("binary form status = %d", rec.Code)
					}
				default:
					rec := doJSON(t, s, "POST", "/form", FormRequest{Dataset: "main",
						FormParams: FormParams{K: 3, L: 6, Semantics: "lm", Aggregation: "min"}})
					if rec.Code != http.StatusOK {
						t.Errorf("form status = %d", rec.Code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	text := scrape(t, s)
	h, err := metrics.ParseHistogram(text, "groupform_request_duration_seconds", `endpoint="form"`)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(goroutines * per * 4 / 5); h.Count != want {
		t.Fatalf("form histogram count = %d, want %d", h.Count, want)
	}
	if !strings.Contains(text, "groupform_scratch_leased 0") {
		t.Fatalf("leases outstanding after traffic:\n%s", text)
	}
	if n := s.LeasedScratches(); n != 0 {
		t.Fatalf("leaked %d scratches", n)
	}
}

// TestNextLimit pins the controller step's shape.
func TestNextLimit(t *testing.T) {
	target := 100 * time.Millisecond
	cases := []struct {
		name string
		cur  int64
		p99  time.Duration
		want int64
	}{
		{"over target backs off a quarter", 100, 150 * time.Millisecond, 75},
		{"way under probes up an eighth", 100, 10 * time.Millisecond, 112},
		{"met SLO holds steady", 100, 90 * time.Millisecond, 100},
		{"exactly 3/4 target probes", 100, 75 * time.Millisecond, 112},
		{"floor", minInflightLimit, 10 * time.Second, minInflightLimit},
		{"small limits still move", 2, time.Millisecond, 3},
		{"ceiling", maxInflightLimit, time.Nanosecond, maxInflightLimit},
	}
	for _, c := range cases {
		if got := nextLimit(c.cur, c.p99, target); got != c.want {
			t.Errorf("%s: nextLimit(%d, %v) = %d, want %d", c.name, c.cur, c.p99, got, c.want)
		}
	}
}

// TestAdaptiveAdmission drives the controller through
// observeAdmission directly: slow epochs walk the limit down toward
// the floor, fast epochs walk it back up.
func TestAdaptiveAdmission(t *testing.T) {
	target := 50 * time.Millisecond
	if lim := New(Config{TargetP99: target}).InflightLimit(); lim != defaultAdaptiveLimit() {
		t.Fatalf("initial limit = %d, want %d", lim, defaultAdaptiveLimit())
	}
	// Seed the walk well above the floor so the back-off is visible
	// on any machine (the CPU-derived default can equal the floor).
	s := New(Config{MaxInflight: 64, TargetP99: target})
	start := s.InflightLimit()
	for i := 0; i < 2*admissionEpoch; i++ {
		s.observeAdmission(4 * target)
	}
	down := s.InflightLimit()
	if down >= start {
		t.Fatalf("limit did not back off under a blown SLO: %d -> %d", start, down)
	}
	for i := 0; i < 8*admissionEpoch; i++ {
		s.observeAdmission(target / 10)
	}
	if up := s.InflightLimit(); up <= down {
		t.Fatalf("limit did not recover with headroom: %d -> %d", down, up)
	}

	// MaxInflight seeds the walk when both are set.
	s2 := New(Config{MaxInflight: 7, TargetP99: target})
	if lim := s2.InflightLimit(); lim != 7 {
		t.Fatalf("seeded limit = %d, want 7", lim)
	}
	// Without a target the limit is pinned.
	s3 := New(Config{MaxInflight: 3})
	for i := 0; i < 2*admissionEpoch; i++ {
		s3.observeAdmission(time.Second)
	}
	if lim := s3.InflightLimit(); lim != 3 {
		t.Fatalf("fixed limit moved to %d", lim)
	}
}
