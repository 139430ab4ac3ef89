package server

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/semantics"
	"groupform/internal/solver"
	"groupform/internal/wire"
)

// oracleBody renders the response /form must produce for cfg: a
// fresh single-threaded Engine.Form marshaled through the same
// serializer the server uses.
func oracleBody(t testing.TB, ds *dataset.Dataset, name string, cfg core.Config) []byte {
	t.Helper()
	eng, err := solver.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Form(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := marshalBody(toFormResponse(name, res, false))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := doJSON(t, s, "GET", "/healthz", nil)
	wantStatus(t, rec, http.StatusOK, "")
	h := decodeAs[HealthResponse](t, rec)
	if h.Status != "ok" || len(h.Datasets) != 1 || h.Datasets[0] != "main" {
		t.Fatalf("healthz = %+v", h)
	}
	if h.Inflight != 0 {
		t.Fatalf("idle inflight = %d", h.Inflight)
	}
}

func TestDatasetsListing(t *testing.T) {
	s, ds := newTestServer(t, Config{})
	rec := doJSON(t, s, "GET", "/datasets", nil)
	wantStatus(t, rec, http.StatusOK, "")
	infos := decodeAs[map[string]DatasetInfo](t, rec)
	want := DatasetInfo{Users: ds.NumUsers(), Items: ds.NumItems(), Ratings: ds.NumRatings()}
	if infos["main"] != want {
		t.Fatalf("infos[main] = %+v, want %+v", infos["main"], want)
	}
}

// TestFormMatchesOracle pins the serving path byte-for-byte to the
// library result across the semantics/aggregation grid.
func TestFormMatchesOracle(t *testing.T) {
	s, ds := newTestServer(t, Config{})
	for _, sem := range []string{"lm", "av"} {
		for _, agg := range []string{"max", "min", "sum"} {
			req := FormRequest{Dataset: "main", FormParams: FormParams{K: 4, L: 6, Semantics: sem, Aggregation: agg}}
			rec := doJSON(t, s, "POST", "/form", req)
			wantStatus(t, rec, http.StatusOK, "")
			cfg, err := req.config(0)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleBody(t, ds, "main", cfg); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s-%s: body diverges from oracle:\n got %s\nwant %s", sem, agg, rec.Body.Bytes(), want)
			}
		}
	}
}

// TestFormDefaultDataset: the empty dataset name resolves iff exactly
// one dataset is loaded.
func TestFormDefaultDataset(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := FormRequest{FormParams: FormParams{K: 3, L: 4, Semantics: "lm", Aggregation: "min"}}
	rec := doJSON(t, s, "POST", "/form", req)
	wantStatus(t, rec, http.StatusOK, "")
	if fr := decodeAs[FormResponse](t, rec); fr.Dataset != "main" {
		t.Fatalf("resolved dataset = %q, want main", fr.Dataset)
	}

	// A second dataset makes the empty name ambiguous.
	if err := s.AddDataset("other", testDS(t, 7)); err != nil {
		t.Fatal(err)
	}
	rec = doJSON(t, s, "POST", "/form", req)
	wantStatus(t, rec, http.StatusNotFound, CodeNotFound)
}

func TestFormErrorMapping(t *testing.T) {
	s, ds := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"not json", []byte("{"), http.StatusBadRequest, CodeBadConfig},
		{"unknown field", []byte(`{"k":3,"l":4,"semantics":"lm","agg":"min","bogus":1}`), http.StatusBadRequest, CodeBadConfig},
		{"two documents", []byte(`{"k":3,"l":4,"semantics":"lm","agg":"min"}{}`), http.StatusBadRequest, CodeBadConfig},
		{"bad semantics", FormRequest{FormParams: FormParams{K: 3, L: 4, Semantics: "median", Aggregation: "min"}}, http.StatusBadRequest, CodeBadConfig},
		{"bad aggregation", FormRequest{FormParams: FormParams{K: 3, L: 4, Semantics: "lm", Aggregation: "p99"}}, http.StatusBadRequest, CodeBadConfig},
		{"k too large", FormRequest{FormParams: FormParams{K: ds.NumItems() + 1, L: 4, Semantics: "lm", Aggregation: "min"}}, http.StatusBadRequest, CodeBadConfig},
		{"zero l", FormRequest{FormParams: FormParams{K: 3, Semantics: "lm", Aggregation: "min"}}, http.StatusBadRequest, CodeBadConfig},
		{"unknown dataset", FormRequest{Dataset: "nope", FormParams: FormParams{K: 3, L: 4, Semantics: "lm", Aggregation: "min"}}, http.StatusNotFound, CodeNotFound},
		{"oversized body", append([]byte(`{"k":3,"l":4,"semantics":"lm","agg":"min","dataset":"`),
			append(bytes.Repeat([]byte("x"), maxSolveBodyBytes+1), []byte(`"}`)...)...),
			http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"negative timeout_ms", FormRequest{TimeoutMS: -5, FormParams: FormParams{K: 3, L: 4, Semantics: "lm", Aggregation: "min"}}, http.StatusBadRequest, CodeBadConfig},
		{"valid doc padded past the cap", append([]byte(`{"k":3,"l":4,"semantics":"lm","agg":"min"}`),
			bytes.Repeat([]byte(" "), maxSolveBodyBytes+1)...),
			http.StatusRequestEntityTooLarge, CodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doJSON(t, s, "POST", "/form", tc.body)
			wantStatus(t, rec, tc.status, tc.code)
		})
	}
	if n := s.LeasedScratches(); n != 0 {
		t.Fatalf("error paths leaked %d scratches", n)
	}
}

// TestSolveEndpoint runs a non-greedy registry algorithm over HTTP
// and checks the too-large classification of the exact DP.
func TestSolveEndpoint(t *testing.T) {
	s, ds := newTestServer(t, Config{})
	req := SolveRequest{Dataset: "main", Seed: 3, FormParams: FormParams{K: 3, L: 5, Semantics: "lm", Aggregation: "min"}}

	// Query parameter selects the algorithm.
	rec := doJSON(t, s, "POST", "/solve?algo=ls", req)
	wantStatus(t, rec, http.StatusOK, "")
	fr := decodeAs[FormResponse](t, rec)
	if !strings.Contains(fr.Algorithm, "LS") {
		t.Fatalf("algorithm = %q, want a local-search name", fr.Algorithm)
	}
	covered := 0
	for _, g := range fr.Groups {
		covered += len(g.Members)
	}
	if covered != ds.NumUsers() {
		t.Fatalf("solve covered %d of %d users", covered, ds.NumUsers())
	}

	// Default algorithm is the greedy.
	rec = doJSON(t, s, "POST", "/solve", req)
	wantStatus(t, rec, http.StatusOK, "")

	// The exact DP rejects a 200-user instance as too large -> 413.
	req.Algo = "exact"
	rec = doJSON(t, s, "POST", "/solve", req)
	wantStatus(t, rec, http.StatusRequestEntityTooLarge, CodeTooLarge)

	// Unknown algorithms are configuration errors.
	req.Algo = "simulated-annealing-pro"
	rec = doJSON(t, s, "POST", "/solve", req)
	wantStatus(t, rec, http.StatusBadRequest, CodeBadConfig)
}

// TestBatch: independent per-item outcomes on one scratch lease, and
// results identical to the one-at-a-time oracle.
func TestBatch(t *testing.T) {
	s, ds := newTestServer(t, Config{})
	req := BatchRequest{Dataset: "main", Requests: []FormParams{
		{K: 3, L: 5, Semantics: "lm", Aggregation: "min"},
		{K: 0, L: 5, Semantics: "lm", Aggregation: "min"}, // invalid K
		{K: 5, L: 3, Semantics: "av", Aggregation: "sum"},
	}}
	rec := doJSON(t, s, "POST", "/form/batch", req)
	wantStatus(t, rec, http.StatusOK, "")
	br := decodeAs[BatchResponse](t, rec)
	if len(br.Results) != 3 {
		t.Fatalf("got %d results", len(br.Results))
	}
	if br.Results[1].Error == nil || br.Results[1].Error.Code != CodeBadConfig {
		t.Fatalf("item 1 = %+v, want bad_config error", br.Results[1])
	}
	for _, i := range []int{0, 2} {
		item := br.Results[i]
		if item.Result == nil {
			t.Fatalf("item %d errored: %+v", i, item.Error)
		}
		cfg, err := req.Requests[i].config(0)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := solver.NewEngine(ds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Form(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if item.Result.Objective != want.Objective || len(item.Result.Groups) != len(want.Groups) {
			t.Fatalf("item %d diverges from oracle", i)
		}
	}
	if n := s.LeasedScratches(); n != 0 {
		t.Fatalf("batch leaked %d scratches", n)
	}

	// An empty batch is a configuration error.
	rec = doJSON(t, s, "POST", "/form/batch", BatchRequest{Dataset: "main"})
	wantStatus(t, rec, http.StatusBadRequest, CodeBadConfig)
}

// TestBackpressure: with the semaphore full, every endpoint sheds
// with 503/overloaded instead of queueing.
func TestBackpressure(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInflight: 2})
	if !s.acquire() || !s.acquire() {
		t.Fatal("could not fill the semaphore")
	}
	defer func() { s.release(); s.release() }()
	req := FormRequest{FormParams: FormParams{K: 3, L: 4, Semantics: "lm", Aggregation: "min"}}
	for _, path := range []string{"/form", "/form/batch", "/solve"} {
		rec := doJSON(t, s, "POST", path, req)
		wantStatus(t, rec, http.StatusServiceUnavailable, CodeOverloaded)
	}
	rec := doJSON(t, s, "POST", "/datasets/x", []byte("user,item,rating\n1,1,5\n"))
	wantStatus(t, rec, http.StatusServiceUnavailable, CodeOverloaded)

	// Releasing a slot readmits traffic.
	s.release()
	rec = doJSON(t, s, "POST", "/form", req)
	wantStatus(t, rec, http.StatusOK, "")
	if !s.acquire() {
		t.Fatal("re-acquire failed")
	}
}

// TestWorkersOverride: a parallel request forms the same groups as
// the serial default (worker-count determinism through the server),
// and an absurd client worker count is clamped to the hardware
// rather than fanning out per-user goroutines.
func TestWorkersOverride(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	serial := FormRequest{FormParams: FormParams{K: 4, L: 6, Semantics: "lm", Aggregation: "min"}}
	parallel := serial
	parallel.Workers = 4
	absurd := serial
	absurd.Workers = 1 << 30
	a := doJSON(t, s, "POST", "/form", serial)
	b := doJSON(t, s, "POST", "/form", parallel)
	c := doJSON(t, s, "POST", "/form", absurd)
	wantStatus(t, a, http.StatusOK, "")
	wantStatus(t, b, http.StatusOK, "")
	wantStatus(t, c, http.StatusOK, "")
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("workers=4 formed different groups than serial")
	}
	if !bytes.Equal(a.Body.Bytes(), c.Body.Bytes()) {
		t.Fatal("clamped workers formed different groups than serial")
	}
	// The binary encoding follows the same worker rule.
	d := doWire(t, s, wire.AppendFormRequest(nil, wire.FormRequest{K: absurd.K, L: absurd.L,
		Semantics: semantics.LM, Aggregation: semantics.Min, Workers: absurd.Workers}), true, false)
	wantStatus(t, d, http.StatusOK, "")
	if !bytes.Equal(a.Body.Bytes(), d.Body.Bytes()) {
		t.Fatal("clamped binary-request workers formed different groups than serial")
	}
	if cfg, err := absurd.config(0); err != nil || cfg.Workers > 1024 {
		t.Fatalf("workers not clamped: %d (err %v)", cfg.Workers, err)
	}
}

// TestRoutingErrorsAreJSON: unknown routes and wrong methods keep the
// error-envelope contract instead of ServeMux's plain-text defaults.
func TestRoutingErrorsAreJSON(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := doJSON(t, s, "GET", "/no/such/route", nil)
	wantStatus(t, rec, http.StatusNotFound, CodeNotFound)
	rec = doJSON(t, s, "GET", "/form", nil)
	wantStatus(t, rec, http.StatusMethodNotAllowed, CodeBadMethod)
	rec = doJSON(t, s, "DELETE", "/datasets/main", nil)
	wantStatus(t, rec, http.StatusMethodNotAllowed, CodeBadMethod)
	rec = doJSON(t, s, "POST", "/healthz", nil)
	wantStatus(t, rec, http.StatusMethodNotAllowed, CodeBadMethod)
}

// quick sanity that the semantics vocabulary used in tests matches
// the library's (a rename there should fail here loudly).
func TestVocabularyRoundTrip(t *testing.T) {
	p := FormParams{K: 1, L: 1, Semantics: "av", Aggregation: "wsum-log"}
	cfg, err := p.config(0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Semantics != semantics.AV || cfg.Aggregation != semantics.WeightedSumLog {
		t.Fatalf("cfg = %+v", cfg)
	}
}
