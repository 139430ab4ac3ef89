package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"groupform/internal/core"
	"groupform/internal/synth"
	"groupform/internal/wire"
)

// TestServerFormSteadyStateZeroAlloc pins the serving tier's
// acceptance bar: the /form handler's solve section — lease a pooled
// scratch, run the cached-preference-list formation into it, return
// the lease — performs zero allocations per request once warm, at the
// same n=10k scale the engine-level guard uses. Everything around the
// section (JSON decode/encode, the response writer) allocates by
// design; this is the part that must not.
func TestServerFormSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user dataset")
	}
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool, defeating the pooled measurement; CI runs this in a non-race step")
	}
	ds, err := synth.YahooLike(10_000, 1_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddDataset("main", ds); err != nil {
		t.Fatal(err)
	}
	eng, _, ok := s.reg.Get("main")
	if !ok {
		t.Fatal("dataset missing")
	}
	var cfg core.Config
	p := FormParams{K: 5, L: 10, Semantics: "lm", Aggregation: "min"}
	if cfg, err = p.config(0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm: pref-list cache, bucket partition, scratch arenas.
	for i := 0; i < 3; i++ {
		res, sc, err := s.formOnScratch(ctx, eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		s.releaseScratch(sc)
	}

	allocs := testing.AllocsPerRun(10, func() {
		res, sc, err := s.formOnScratch(ctx, eng, cfg)
		if err != nil || len(res.Groups) == 0 {
			t.Fatalf("solve failed: %v", err)
		}
		s.releaseScratch(sc)
	})
	if allocs != 0 {
		t.Fatalf("warm handler solve section allocated %v times per request, want 0", allocs)
	}
}

// reusableRecorder is an http.ResponseWriter that retains its header
// map and body buffer across requests, so the alloc measurement sees
// only the server's own allocations, not the test harness's.
type reusableRecorder struct {
	hdr  http.Header
	body []byte
	code int
}

func (r *reusableRecorder) Header() http.Header { return r.hdr }
func (r *reusableRecorder) WriteHeader(c int)   { r.code = c }
func (r *reusableRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}
func (r *reusableRecorder) reset() { r.body, r.code = r.body[:0], 0 }

// TestServerFormBinarySteadyStateZeroAlloc pins the tentpole of the
// binary wire path: the FULL /form handler — mux dispatch,
// instrumentation, admission, body read, binary decode, registry
// lookup, solve, binary encode, write — stays at or under 5
// allocations per request once warm, against the JSON envelope's
// ~30. The residue is the Content-Type header value slice and
// harness noise, not per-group work; the bound is what the bench
// regression gate enforces too.
func TestServerFormBinarySteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user dataset")
	}
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool, defeating the pooled measurement; CI runs this in a non-race step")
	}
	ds, err := synth.YahooLike(10_000, 1_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddDataset("main", ds); err != nil {
		t.Fatal(err)
	}
	frame := wire.AppendFormRequest(nil, wire.FormRequest{
		Dataset: []byte("main"), K: 5, L: 10,
		Semantics: 0, Aggregation: 1, // lm / min: the zero-alloc serial path
	})
	body := bytes.NewReader(frame)
	req := httptest.NewRequest("POST", "/form", body)
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType)
	rec := &reusableRecorder{hdr: make(http.Header)}

	serve := func() {
		if _, err := body.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		rec.reset()
		s.ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			t.Fatalf("binary form status = %d (%s)", rec.code, rec.body)
		}
	}
	for i := 0; i < 5; i++ {
		serve()
	}
	if res, err := wire.ParseFormResponse(rec.body); err != nil || len(res.Groups) == 0 {
		t.Fatalf("warm response invalid: %v", err)
	}

	allocs := testing.AllocsPerRun(10, serve)
	if allocs > 5 {
		t.Fatalf("warm binary /form handler allocated %v times per request, want <= 5", allocs)
	}
	if n := s.LeasedScratches(); n != 0 {
		t.Fatalf("binary path leaked %d scratches", n)
	}
}
