package server

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"groupform/internal/semantics"
	"groupform/internal/solver"
	"groupform/internal/wire"
)

// tripCtx is the server-level twin of the root package's
// fault-injection context: live for the first `remaining` Err polls,
// canceled from then on. Because solveCtx hands r.Context() straight
// to the solve when no timeout is configured, attaching a tripCtx to
// an httptest request injects a deterministic cancellation at the
// N-th solver touchpoint — no timers, no goroutines, no flaky races.
type tripCtx struct {
	remaining int
	tripped   bool
}

func (c *tripCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *tripCtx) Done() <-chan struct{}       { return nil }
func (c *tripCtx) Value(key any) any           { return nil }

func (c *tripCtx) Err() error {
	if c.tripped || c.remaining == 0 {
		c.tripped = true
		return context.Canceled
	}
	c.remaining--
	return nil
}

const tripProbe = 1 << 20

// postWithTrip runs one POST through the handler with a tripping
// context and returns the recorder plus the injector (for call
// accounting).
func postWithTrip(t *testing.T, s *Server, path string, body []byte, n int, binary bool) (*httptest.ResponseRecorder, *tripCtx) {
	t.Helper()
	ctx := &tripCtx{remaining: n}
	req := httptest.NewRequest("POST", path, bytes.NewReader(body)).WithContext(ctx)
	if binary {
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, ctx
}

// TestFormAnytimeDegradedVsCanceled pins the HTTP half of the anytime
// contract on POST /form: sweeping a deterministic cancellation
// across every solver touchpoint, each outcome is either 200 with a
// complete result, 200 with degraded:true and a sound certificate, or
// 499 — and 499 appears only when the solve had nothing feasible yet.
// The sweep runs twice: over requests served from the engine's cached
// bucket partition, and over the request that fills it, where a trip
// mid-fill leaves the slot empty for a later request to fill. Without
// anytime, the same trips all surface as 499.
func TestFormAnytimeDegradedVsCanceled(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	body := []byte(`{"dataset":"main","k":3,"l":5,"semantics":"lm","agg":"min","anytime":true}`)

	// Warm twice so every sweep run takes the same code path: the
	// first request builds the preference lists, the second fills the
	// bucket partition, and every later one starts from it.
	for i := 0; i < 2; i++ {
		if rec := doJSON(t, srv, "POST", "/form", body); rec.Code != 200 {
			t.Fatalf("warmup %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	rec, probe := postWithTrip(t, srv, "/form", body, tripProbe, false)
	if rec.Code != 200 || probe.tripped {
		t.Fatalf("untripped request: %d (tripped=%v) %s", rec.Code, probe.tripped, rec.Body.String())
	}
	calls := tripProbe - probe.remaining

	sawDegraded, sawCanceled := false, false
	for n := 0; n <= calls; n++ {
		rec, _ := postWithTrip(t, srv, "/form", body, n, false)
		degraded, canceled := checkAnytimeOutcome(t, n, rec, n < calls)
		sawDegraded, sawCanceled = sawDegraded || degraded, sawCanceled || canceled
	}
	if !sawDegraded || !sawCanceled {
		t.Fatalf("sweep did not reach both outcomes: degraded=%v canceled=%v (calls=%d)",
			sawDegraded, sawCanceled, calls)
	}
	if st := engineStats(t, srv); st.PartitionBuilds != 1 {
		t.Fatalf("cached sweep refilled the partition: %+v", st)
	}

	// The fill request: one warm-up marks the slot, so each request
	// below fills it until a trip lands after the fill.
	fill, _ := newTestServer(t, Config{})
	if rec := doJSON(t, fill, "POST", "/form", body); rec.Code != 200 {
		t.Fatalf("fill warmup: %d %s", rec.Code, rec.Body.String())
	}
	emptied := 0
	for n := 0; engineStats(t, fill).PartitionBuilds == 0; n++ {
		if n > calls {
			t.Fatalf("no trip up to %d filled the partition", n)
		}
		rec, _ := postWithTrip(t, fill, "/form", body, n, false)
		checkAnytimeOutcome(t, n, rec, true)
		if engineStats(t, fill).PartitionBuilds == 0 {
			if rec.Code != StatusClientClosedRequest {
				t.Fatalf("fill trip %d: slot left empty, yet status %d", n, rec.Code)
			}
			emptied++
		}
	}
	if emptied == 0 {
		t.Fatal("no trip landed mid-fill")
	}
	if rec := doJSON(t, fill, "POST", "/form", body); rec.Code != 200 {
		t.Fatalf("after the fill sweep: %d %s", rec.Code, rec.Body.String())
	}
	if st := engineStats(t, fill); st.PartitionBuilds != 1 || st.PartitionHits != 1 {
		t.Fatalf("after the fill sweep: %+v, want 1 build and 1 hit", st)
	}

	// Compatibility: the identical sweep without anytime never
	// produces a 200 for a tripped solve.
	plain := []byte(`{"dataset":"main","k":3,"l":5,"semantics":"lm","agg":"min"}`)
	for n := 0; n < calls; n++ {
		rec, ctx := postWithTrip(t, srv, "/form", plain, n, false)
		if ctx.tripped && rec.Code != StatusClientClosedRequest {
			t.Fatalf("trip %d without anytime: status %d, want 499", n, rec.Code)
		}
	}
}

// checkAnytimeOutcome fails t unless rec is one anytime outcome of a
// JSON /form request tripped at n: a complete 200 (only when tripped
// is false), a degraded 200 with a sound certificate, or a 499. It
// reports which of the last two it was.
func checkAnytimeOutcome(t *testing.T, n int, rec *httptest.ResponseRecorder, tripped bool) (degraded, canceled bool) {
	t.Helper()
	switch rec.Code {
	case 200:
		fr := decodeAs[FormResponse](t, rec)
		if tripped && !fr.Degraded {
			t.Fatalf("trip %d: 200 without degraded flag despite a mid-solve trip", n)
		}
		if fr.Degraded {
			if len(fr.Groups) == 0 {
				t.Fatalf("trip %d: degraded response carries no groups", n)
			}
			if fr.Bound <= 0 || math.Abs(fr.Gap-(fr.Bound-fr.Objective)) > 1e-6 {
				t.Fatalf("trip %d: certificate bound=%v gap=%v objective=%v inconsistent",
					n, fr.Bound, fr.Gap, fr.Objective)
			}
			if fr.Completed <= 0 || fr.Total < fr.Completed {
				t.Fatalf("trip %d: certificate progress %d/%d malformed", n, fr.Completed, fr.Total)
			}
		}
		return fr.Degraded, false
	case StatusClientClosedRequest:
		eb := decodeAs[ErrorBody](t, rec)
		if eb.Code != CodeCanceled {
			t.Fatalf("trip %d: 499 code %q, want %q", n, eb.Code, CodeCanceled)
		}
		return false, true
	default:
		t.Fatalf("trip %d: status %d: %s", n, rec.Code, rec.Body.String())
	}
	return false, false
}

// engineStats is the cache counters of the engine serving "main".
func engineStats(t *testing.T, s *Server) solver.EngineStats {
	t.Helper()
	eng, _, ok := s.reg.Get("main")
	if !ok {
		t.Fatal("no engine serves main")
	}
	return eng.Stats()
}

// TestFormWireAnytimeDegraded covers the binary wire path: an anytime
// request whose solve is cut mid-flight comes back as a 200 binary
// frame with the degraded flag set and a parseable certificate.
func TestFormWireAnytimeDegraded(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	frame := wire.AppendFormRequest(nil, wire.FormRequest{
		Dataset:     []byte("main"),
		K:           3,
		L:           5,
		Semantics:   semantics.LM,
		Aggregation: semantics.Min,
		Anytime:     true,
	})
	rec, probe := postWithTrip(t, srv, "/form", frame, tripProbe, true)
	if rec.Code != 200 {
		t.Fatalf("untripped binary request: %d %s", rec.Code, rec.Body.String())
	}
	// The first request built the preference lists and the second
	// fills the bucket partition; re-probe on the cached path.
	for i := 0; i < 2; i++ {
		rec, probe = postWithTrip(t, srv, "/form", frame, tripProbe, true)
		if rec.Code != 200 || probe.tripped {
			t.Fatalf("warm binary request: %d (tripped=%v)", rec.Code, probe.tripped)
		}
	}
	calls := tripProbe - probe.remaining

	sawDegraded := false
	for n := 0; n <= calls; n++ {
		rec, _ := postWithTrip(t, srv, "/form", frame, n, true)
		switch rec.Code {
		case 200:
			if ct := rec.Header().Get("Content-Type"); ct != wire.ContentType {
				t.Fatalf("trip %d: Content-Type %q, want %q", n, ct, wire.ContentType)
			}
			raw := rec.Body.Bytes()
			flagged := len(raw) >= 4 && raw[3]&wire.FlagDegraded != 0
			res, err := wire.ParseFormResponse(raw)
			if err != nil {
				t.Fatalf("trip %d: parse response: %v", n, err)
			}
			if res.Degraded != flagged {
				t.Fatalf("trip %d: header flag %v != parsed degraded %v", n, flagged, res.Degraded)
			}
			if res.Degraded {
				sawDegraded = true
				if len(res.Groups) == 0 || res.Bound <= 0 {
					t.Fatalf("trip %d: degraded frame groups=%d bound=%v", n, len(res.Groups), res.Bound)
				}
			}
		case StatusClientClosedRequest:
			// Error responses are always the JSON envelope.
			eb := decodeAs[ErrorBody](t, rec)
			if eb.Code != CodeCanceled {
				t.Fatalf("trip %d: 499 code %q", n, eb.Code)
			}
		default:
			t.Fatalf("trip %d: status %d: %s", n, rec.Code, rec.Body.String())
		}
	}
	if !sawDegraded {
		t.Fatalf("binary sweep produced no degraded frame (calls=%d)", calls)
	}
}

// TestBatchAnytimeItems pins per-item degradation on POST /form/batch:
// a trip mid-batch leaves earlier items complete, the interrupted item
// degraded (it had an incumbent) or canceled, and every later item
// canceled — never a half-written item, never a dropped one.
func TestBatchAnytimeItems(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	body := []byte(`{"dataset":"main","requests":[` +
		`{"k":3,"l":5,"semantics":"lm","agg":"min","anytime":true},` +
		`{"k":3,"l":5,"semantics":"av","agg":"sum","anytime":true},` +
		`{"k":2,"l":4,"semantics":"lm","agg":"sum","anytime":true}]}`)

	if rec := doJSON(t, srv, "POST", "/form/batch", body); rec.Code != 200 {
		t.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}
	rec, probe := postWithTrip(t, srv, "/form/batch", body, tripProbe, false)
	if rec.Code != 200 || probe.tripped {
		t.Fatalf("untripped batch: %d (tripped=%v)", rec.Code, probe.tripped)
	}
	calls := tripProbe - probe.remaining

	sawDegradedItem := false
	for n := 0; n <= calls; n++ {
		rec, _ := postWithTrip(t, srv, "/form/batch", body, n, false)
		if rec.Code != 200 && rec.Code != StatusClientClosedRequest {
			t.Fatalf("trip %d: status %d: %s", n, rec.Code, rec.Body.String())
		}
		br := decodeAs[BatchResponse](t, rec)
		if len(br.Results) != 3 {
			t.Fatalf("trip %d: %d results, want 3", n, len(br.Results))
		}
		failed := false
		for i, item := range br.Results {
			switch {
			case (item.Result == nil) == (item.Error == nil):
				t.Fatalf("trip %d item %d: want exactly one of result/error, got %+v", n, i, item)
			case item.Error != nil:
				if item.Error.Code != CodeCanceled {
					t.Fatalf("trip %d item %d: error code %q", n, i, item.Error.Code)
				}
				failed = true
			case failed:
				t.Fatalf("trip %d item %d: result after a canceled item", n, i)
			case item.Result.Degraded:
				sawDegradedItem = true
				if len(item.Result.Groups) == 0 || item.Result.Bound <= 0 {
					t.Fatalf("trip %d item %d: degraded item groups=%d bound=%v",
						n, i, len(item.Result.Groups), item.Result.Bound)
				}
			}
		}
	}
	if !sawDegradedItem {
		t.Fatalf("batch sweep produced no degraded item (calls=%d)", calls)
	}
}
