package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"groupform/internal/dataset"
	"groupform/internal/server"
	"groupform/internal/wire"
)

// routerTestDataset builds a deterministic synthetic dataset with
// integer 1-5 ratings (the paper's scale — the regime where AV
// partial-sum reassociation is exact and the byte-parity claim
// covers both semantics).
func routerTestDataset(t *testing.T, users, items, perUser int) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder(dataset.DefaultScale)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		// splitmix64 step: deterministic, well-mixed, stdlib-free.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for u := 0; u < users; u++ {
		seen := make(map[int]bool)
		for r := 0; r < perUser; r++ {
			it := int(next() % uint64(items))
			if seen[it] {
				continue
			}
			seen[it] = true
			val := float64(1 + next()%5)
			if err := b.Add(dataset.UserID(u), dataset.ItemID(it*7), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

// topology spins up S shard-role servers over ds plus a router in
// front of them, all on httptest listeners.
type topology struct {
	shards []*httptest.Server
	router *httptest.Server
}

func (tp *topology) close() {
	tp.router.Close()
	for _, s := range tp.shards {
		s.Close()
	}
}

// startTopology builds the S-shard deployment. wrap, when non-nil,
// decorates each shard's handler (fault/delay injection).
func startTopology(t *testing.T, ds *dataset.Dataset, S int, rcfg Config, wrap func(shard int, h http.Handler) http.Handler) *topology {
	t.Helper()
	tp := &topology{}
	urls := make([]string, S)
	for i := 0; i < S; i++ {
		srv := server.New(server.Config{Shard: i, Shards: S})
		if err := srv.AddDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
		var h http.Handler = srv
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		tp.shards = append(tp.shards, ts)
		urls[i] = ts.URL
	}
	rcfg.Shards = urls
	rt, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	tp.router = httptest.NewServer(rt)
	t.Cleanup(tp.close)
	return tp
}

func postForm(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/form", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// singleNodeForm is the parity reference: the same request answered
// by one unsharded server holding the whole dataset.
func singleNodeForm(t *testing.T, ds *dataset.Dataset, body string) []byte {
	t.Helper()
	srv := server.New(server.Config{})
	if err := srv.AddDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	st, raw := postForm(t, ts.URL, body)
	if st != http.StatusOK {
		t.Fatalf("single node: status %d: %s", st, raw)
	}
	return raw
}

// TestRouterParity: the routed response is byte-identical to the
// single-node response for every shard count on the heap branch
// (L < buckets), under both semantics — integer ratings make AV exact
// too — with and without a missing imputation.
func TestRouterParity(t *testing.T) {
	ds := routerTestDataset(t, 140, 30, 8)
	cases := []string{
		`{"dataset":"ds","k":4,"l":6,"semantics":"lm","agg":"max"}`,
		`{"dataset":"ds","k":4,"l":6,"semantics":"lm","agg":"sum"}`,
		`{"dataset":"ds","k":4,"l":6,"semantics":"av","agg":"sum"}`,
		`{"dataset":"ds","k":4,"l":6,"semantics":"av","agg":"max"}`,
		`{"dataset":"ds","k":3,"l":2,"semantics":"lm","agg":"min"}`,
		// L=60 is still below this dataset's bucket count at K=4;
		// the split branch is TestRouterParitySplitBranch's.
		`{"dataset":"ds","k":4,"l":60,"semantics":"lm","agg":"sum"}`,
		`{"dataset":"ds","k":4,"l":60,"semantics":"av","agg":"sum"}`,
		// K near the catalog size: the merged remainder and short
		// buckets need the oracle's catalog-padding walk.
		`{"dataset":"ds","k":28,"l":5,"semantics":"lm","agg":"max"}`,
		`{"dataset":"ds","k":28,"l":5,"semantics":"av","agg":"wsum-log"}`,
		// A non-zero missing off the rating grid: the single node
		// scores its merged remainder by the complement (level counts
		// minus the selected buckets), the router by forward gathers
		// of per-shard stats; both must land on the same bytes.
		`{"dataset":"ds","k":4,"l":6,"semantics":"lm","agg":"min","missing":0.5}`,
		`{"dataset":"ds","k":4,"l":6,"semantics":"av","agg":"sum","missing":0.5}`,
		`{"dataset":"ds","k":3,"l":2,"semantics":"av","agg":"max","missing":0.5}`,
		`{"dataset":"ds","k":28,"l":5,"semantics":"lm","agg":"sum","missing":0.5}`,
		`{"dataset":"ds","k":28,"l":5,"semantics":"av","agg":"min","missing":0.5}`,
	}
	for _, body := range cases {
		want := singleNodeForm(t, ds, body)
		for _, S := range []int{1, 2, 3, 7} {
			tp := startTopology(t, ds, S, Config{}, nil)
			st, got := postForm(t, tp.router.URL, body)
			if st != http.StatusOK {
				t.Fatalf("S=%d %s: status %d: %s", S, body, st, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("S=%d %s:\nrouter:      %s\nsingle node: %s", S, body, got, want)
			}
			tp.close()
		}
	}
}

// TestRouterParitySplitBranch: at K=1 this dataset has fewer buckets
// than L=60 (and at K=2, fewer than L=130 under AV), so the plan
// splits buckets into strict pieces and the gather oracle refolds
// them through GroupScores — positional stats merges that the
// TestRouterParity inputs never reach. Every semantics and
// aggregation stays byte-identical to the single node.
func TestRouterParitySplitBranch(t *testing.T) {
	ds := routerTestDataset(t, 140, 30, 8)
	var cases []string
	for _, sem := range []string{"lm", "av"} {
		for _, agg := range []string{"min", "max", "sum"} {
			cases = append(cases, fmt.Sprintf(`{"dataset":"ds","k":1,"l":60,"semantics":%q,"agg":%q}`, sem, agg))
		}
	}
	cases = append(cases, `{"dataset":"ds","k":2,"l":130,"semantics":"av","agg":"sum"}`)
	for _, body := range cases {
		want := singleNodeForm(t, ds, body)
		for _, S := range []int{2, 3, 7} {
			tp := startTopology(t, ds, S, Config{}, nil)
			st, got := postForm(t, tp.router.URL, body)
			if st != http.StatusOK {
				t.Fatalf("S=%d %s: status %d: %s", S, body, st, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("S=%d %s:\nrouter:      %s\nsingle node: %s", S, body, got, want)
			}
			tp.close()
		}
	}
}

// TestRouterParityRefoldMissing: a refold piece scores its listed
// items through ItemScoreIdx on the single node and through merged
// GroupStats records on the router; both must use one formula,
// WSum + (totalW − WRaters)·Missing. Each taste group's users rank
// their two items alike, so there are 3 buckets and every L here
// takes the split branch. Every user rates only 2 of the catalog's 6
// items, so every piece has members who did not rate a listed item
// (k >= 3), and a missing of 0.1 or 0.3 — not exactly
// representable — makes a member-by-member sum of Missing terms
// differ from that formula in the last bits. One shard keeps the
// router's stats fold in member order, so the bodies must match
// byte for byte; at S >= 2 the shard partials reassociate those terms
// (the bounded-error AV caveat).
func TestRouterParityRefoldMissing(t *testing.T) {
	b := dataset.NewBuilder(dataset.DefaultScale)
	for u := 0; u < 300; u++ {
		taste := u % 3
		b.MustAdd(dataset.UserID(u), dataset.ItemID(2*taste), float64(3+(u/3)%3))
		b.MustAdd(dataset.UserID(u), dataset.ItemID(2*taste+1), float64(1+(u/7)%2))
	}
	ds := b.Build()
	tp := startTopology(t, ds, 1, Config{}, nil)
	for _, agg := range []string{"min", "max", "sum"} {
		for _, k := range []int{3, 4} {
			for _, l := range []int{4, 6, 9} {
				for _, missing := range []float64{0.1, 0.3} {
					body := fmt.Sprintf(`{"dataset":"ds","k":%d,"l":%d,"semantics":"av","agg":%q,"missing":%v}`, k, l, agg, missing)
					want := singleNodeForm(t, ds, body)
					st, got := postForm(t, tp.router.URL, body)
					if st != http.StatusOK {
						t.Fatalf("%s: status %d: %s", body, st, got)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s:\nrouter:      %s\nsingle node: %s", body, got, want)
					}
				}
			}
		}
	}
}

// TestRouterParityArrivalOrder: shard responses arriving in reverse
// (and scrambled) order produce byte-identical output — the merge is
// ordered by shard index, not by arrival.
func TestRouterParityArrivalOrder(t *testing.T) {
	ds := routerTestDataset(t, 90, 24, 7)
	body := `{"dataset":"ds","k":4,"l":5,"semantics":"av","agg":"sum"}`
	want := singleNodeForm(t, ds, body)
	const S = 3
	delays := [][]time.Duration{
		{0, 20 * time.Millisecond, 40 * time.Millisecond},
		{40 * time.Millisecond, 20 * time.Millisecond, 0},
		{20 * time.Millisecond, 0, 40 * time.Millisecond},
	}
	for di, dl := range delays {
		tp := startTopology(t, ds, S, Config{}, func(shard int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(dl[shard])
				h.ServeHTTP(w, r)
			})
		})
		st, got := postForm(t, tp.router.URL, body)
		if st != http.StatusOK {
			t.Fatalf("delays[%d]: status %d: %s", di, st, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("delays[%d]: arrival order changed the response:\n%s\nwant\n%s", di, got, want)
		}
		tp.close()
	}
}

// TestRouterDegradedShardLoss: with one shard down, a non-anytime
// request is refused 503 shard_unavailable, and an anytime request
// degrades to the responding sub-population with a sound
// certificate.
func TestRouterDegradedShardLoss(t *testing.T) {
	ds := routerTestDataset(t, 120, 24, 7)
	const S = 3
	tp := startTopology(t, ds, S, Config{Retries: 0, ShardTimeout: 2 * time.Second}, nil)
	tp.shards[1].Close()

	st, raw := postForm(t, tp.router.URL, `{"dataset":"ds","k":4,"l":5,"semantics":"lm","agg":"sum"}`)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("non-anytime with shard down: status %d: %s", st, raw)
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != CodeShardUnavailable {
		t.Fatalf("non-anytime error body = %s (err %v), want code %s", raw, err, CodeShardUnavailable)
	}

	st, raw = postForm(t, tp.router.URL, `{"dataset":"ds","k":4,"l":5,"semantics":"lm","agg":"sum","anytime":true}`)
	if st != http.StatusOK {
		t.Fatalf("anytime with shard down: status %d: %s", st, raw)
	}
	var fr server.FormResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Degraded || fr.Completed != S-1 || fr.Total != S {
		t.Fatalf("degraded envelope = degraded:%v completed:%d total:%d, want true %d %d",
			fr.Degraded, fr.Completed, fr.Total, S-1, S)
	}
	if fr.Bound < fr.Objective {
		t.Fatalf("bound %v < objective %v: certificate is not admissible", fr.Bound, fr.Objective)
	}
	if fr.Gap != fr.Bound-fr.Objective {
		t.Fatalf("gap %v != bound-objective %v", fr.Gap, fr.Bound-fr.Objective)
	}
	// The formed groups must cover exactly the responding shards'
	// residents: shards 0 and 2 of 3.
	resident := make(map[dataset.UserID]bool)
	for _, s := range []int{0, 2} {
		sds, err := ds.ShardUsers(s, S)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range sds.Users() {
			resident[u] = true
		}
	}
	seen := 0
	for _, g := range fr.Groups {
		for _, u := range g.Members {
			if !resident[u] {
				t.Fatalf("group member %d is not resident on a responding shard", u)
			}
			seen++
		}
	}
	if seen != len(resident) {
		t.Fatalf("groups cover %d users, want %d (every responding resident exactly once)", seen, len(resident))
	}
}

// TestRouterRetries: a shard whose first answer is a 500 is retried
// and the solve still completes (and stays byte-identical).
func TestRouterRetries(t *testing.T) {
	ds := routerTestDataset(t, 60, 20, 6)
	body := `{"dataset":"ds","k":3,"l":4,"semantics":"lm","agg":"sum"}`
	want := singleNodeForm(t, ds, body)
	var failed atomic.Bool
	tp := startTopology(t, ds, 2, Config{Retries: 1}, func(shard int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if shard == 1 && r.URL.Path == "/shard/buckets" && failed.CompareAndSwap(false, true) {
				server.WriteError(w, http.StatusInternalServerError, server.CodeInternal, "injected fault")
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	st, got := postForm(t, tp.router.URL, body)
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, got)
	}
	if !failed.Load() {
		t.Fatal("fault was never injected")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("retried solve differs:\n%s\nwant\n%s", got, want)
	}
}

// TestRouterPropagatesBadRequest: a 4xx from the shards (unknown
// dataset, bad params) is the client's problem and propagates with
// its classification instead of softening to shard_unavailable.
func TestRouterPropagatesBadRequest(t *testing.T) {
	ds := routerTestDataset(t, 30, 12, 5)
	tp := startTopology(t, ds, 2, Config{}, nil)

	st, raw := postForm(t, tp.router.URL, `{"dataset":"nope","k":3,"l":2,"semantics":"lm","agg":"sum"}`)
	if st != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d: %s", st, raw)
	}
	st, raw = postForm(t, tp.router.URL, `{"dataset":"ds","k":3,"l":2,"semantics":"banana","agg":"sum"}`)
	if st != http.StatusBadRequest {
		t.Fatalf("bad semantics: status %d: %s", st, raw)
	}
	st, raw = postForm(t, tp.router.URL, `{"dataset":"ds","k":0,"l":2,"semantics":"lm","agg":"sum"}`)
	if st != http.StatusBadRequest {
		t.Fatalf("k=0: status %d: %s", st, raw)
	}
}

// TestRouterTimeoutClamp: the router's -timeout ceiling clamps a
// request's timeout_ms and reports the effective deadline, matching
// the single-node contract.
func TestRouterTimeoutClamp(t *testing.T) {
	ds := routerTestDataset(t, 30, 12, 5)
	tp := startTopology(t, ds, 2, Config{Timeout: 5 * time.Second}, nil)
	st, raw := postForm(t, tp.router.URL,
		`{"dataset":"ds","k":3,"l":2,"semantics":"lm","agg":"sum","timeout_ms":600000}`)
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, raw)
	}
	var fr server.FormResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.EffectiveTimeoutMS != 5000 {
		t.Fatalf("effective_timeout_ms = %d, want 5000", fr.EffectiveTimeoutMS)
	}
}

// TestRouterHealthz: ok with all shards up, degraded (503) with one
// down, and mismatched when a URL serves a different slice than the
// router credits it with.
func TestRouterHealthz(t *testing.T) {
	ds := routerTestDataset(t, 30, 12, 5)
	tp := startTopology(t, ds, 3, Config{ShardTimeout: 2 * time.Second, Retries: 0}, nil)

	get := func() (int, RouterHealthResponse) {
		resp, err := http.Get(tp.router.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h RouterHealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	st, h := get()
	if st != http.StatusOK || h.Status != "ok" {
		t.Fatalf("all up: status %d %q, want 200 ok: %+v", st, h.Status, h)
	}
	for i, sh := range h.Shards {
		if sh.Shard == nil || sh.Shard.Shard != i || sh.Shard.Shards != 3 {
			t.Fatalf("shard %d reports topology %+v", i, sh.Shard)
		}
	}

	tp.shards[2].Close()
	st, h = get()
	if st != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("one down: status %d %q, want 503 degraded", st, h.Status)
	}
	if h.Shards[2].Status != "unreachable" {
		t.Fatalf("shard 2 status %q, want unreachable", h.Shards[2].Status)
	}

	// A server configured as shard 1/3 answering on shard 0's URL.
	wrong := server.New(server.Config{Shard: 1, Shards: 3})
	if err := wrong.AddDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	wrongTS := httptest.NewServer(wrong)
	defer wrongTS.Close()
	rt, err := NewRouter(Config{Shards: []string{wrongTS.URL, tp.shards[1].URL, wrongTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()
	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mh RouterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&mh); err != nil {
		t.Fatal(err)
	}
	if mh.Shards[0].Status != "mismatched" {
		t.Fatalf("wrong-slice shard status %q, want mismatched: %+v", mh.Shards[0].Status, mh)
	}
}

// TestRouterMetrics: the exposition carries the shared
// endpoint="form" families plus the per-shard router series.
func TestRouterMetrics(t *testing.T) {
	ds := routerTestDataset(t, 30, 12, 5)
	tp := startTopology(t, ds, 2, Config{}, nil)
	if st, raw := postForm(t, tp.router.URL, `{"dataset":"ds","k":3,"l":2,"semantics":"lm","agg":"sum"}`); st != http.StatusOK {
		t.Fatalf("form: status %d: %s", st, raw)
	}
	resp, err := http.Get(tp.router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	page := string(raw)
	for _, want := range []string{
		`groupform_requests_total{endpoint="form"} 1`,
		`groupform_request_duration_seconds_count{endpoint="form"} 1`,
		`groupform_router_shard_requests_total{shard="0"} 1`,
		`groupform_router_shard_requests_total{shard="1"} 1`,
		`groupform_router_shard_errors_total{shard="0"} 0`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q\n%s", want, page)
		}
	}
}

// TestRouterRejectsUpsertOnShard: shard-role servers refuse live
// upserts — the mutation would break the partition invariant.
func TestRouterRejectsUpsertOnShard(t *testing.T) {
	ds := routerTestDataset(t, 30, 12, 5)
	tp := startTopology(t, ds, 2, Config{}, nil)
	resp, err := http.Post(tp.shards[0].URL+"/datasets/ds/ratings", "application/json",
		strings.NewReader(`{"ratings":[{"user":1,"item":7,"value":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("upsert on shard: status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "read-only") {
		t.Fatalf("upsert refusal should explain the shard is read-only: %s", raw)
	}
}

// TestRouterRepeatDeterminism: repeated identical requests through
// the same topology return identical bytes (no map-iteration or
// goroutine-schedule leakage anywhere in the merge or gather).
func TestRouterRepeatDeterminism(t *testing.T) {
	ds := routerTestDataset(t, 90, 24, 7)
	tp := startTopology(t, ds, 3, Config{}, nil)
	body := `{"dataset":"ds","k":24,"l":40,"semantics":"av","agg":"sum"}`
	_, first := postForm(t, tp.router.URL, body)
	for i := 0; i < 5; i++ {
		if _, got := postForm(t, tp.router.URL, body); !bytes.Equal(got, first) {
			t.Fatalf("run %d differs from first:\n%s\nvs\n%s", i+1, got, first)
		}
	}
}

// TestRouterOneGatherRound: whatever its plan, a routed request asks
// each responding shard one POST /shard/scores, and still answers the
// single node's bytes. The cases cover the split branch's LM-MAX
// refold pieces (k=1), the heap branch's LM-MAX short buckets plus
// the remainder, LM refold pieces under a missing of 0.3, and K near
// the catalog size, where the remainder pads from the catalog.
func TestRouterOneGatherRound(t *testing.T) {
	ds := routerTestDataset(t, 140, 30, 8)
	b := dataset.NewBuilder(dataset.DefaultScale)
	for u := 0; u < 300; u++ {
		taste := u % 3
		b.MustAdd(dataset.UserID(u), dataset.ItemID(2*taste), float64(3+(u/3)%3))
		b.MustAdd(dataset.UserID(u), dataset.ItemID(2*taste+1), float64(1+(u/7)%2))
	}
	refold := b.Build()
	cases := []struct {
		ds   *dataset.Dataset
		body string
	}{
		{ds, `{"dataset":"ds","k":1,"l":60,"semantics":"lm","agg":"max"}`},
		{ds, `{"dataset":"ds","k":4,"l":6,"semantics":"lm","agg":"max"}`},
		{ds, `{"dataset":"ds","k":4,"l":60,"semantics":"lm","agg":"max","missing":0.5}`},
		{refold, `{"dataset":"ds","k":3,"l":20,"semantics":"lm","agg":"sum","missing":0.3}`},
		{refold, `{"dataset":"ds","k":4,"l":9,"semantics":"lm","agg":"min","missing":0.3}`},
		{ds, `{"dataset":"ds","k":28,"l":5,"semantics":"lm","agg":"max"}`},
		{ds, `{"dataset":"ds","k":28,"l":5,"semantics":"av","agg":"sum"}`},
	}
	for _, tc := range cases {
		want := singleNodeForm(t, tc.ds, tc.body)
		for _, S := range []int{1, 2, 3, 7} {
			calls := make([]atomic.Int32, S)
			tp := startTopology(t, tc.ds, S, Config{}, func(shard int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method == http.MethodPost && r.URL.Path == "/shard/scores" {
						calls[shard].Add(1)
					}
					h.ServeHTTP(w, r)
				})
			})
			st, got := postForm(t, tp.router.URL, tc.body)
			if st != http.StatusOK {
				t.Fatalf("S=%d %s: status %d: %s", S, tc.body, st, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("S=%d %s:\nrouter:      %s\nsingle node: %s", S, tc.body, got, want)
			}
			for i := range calls {
				if n := calls[i].Load(); n > 1 {
					t.Errorf("S=%d %s: shard %d answered %d scores calls, want at most 1", S, tc.body, i, n)
				}
			}
			tp.close()
		}
	}
}

// rewriteShard serves h into a recorder and lets edit rewrite a 200
// answer of path before it goes out.
func rewriteShard(h http.Handler, path string, edit func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == path && rec.Code == http.StatusOK {
			body = edit(body)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestRouterMalformedShardFrames: a shard answering a cut frame is an
// availability fault — 503 shard_unavailable, or under anytime a
// degraded answer over the other shards when the cut frame is a
// scatter answer (a gather fault is fatal either way) — never a panic
// or a 200 built from it. A well-formed gather answer whose resident
// counts do not sum to the group is a topology fault, a 500.
func TestRouterMalformedShardFrames(t *testing.T) {
	ds := routerTestDataset(t, 120, 24, 7)
	const S = 3
	cut := func(b []byte) []byte { return b[:len(b)-1] }
	body := `{"dataset":"ds","k":4,"l":5,"semantics":"lm","agg":"max"}`
	anytime := `{"dataset":"ds","k":4,"l":5,"semantics":"lm","agg":"max","anytime":true}`
	for _, path := range []string{"/shard/buckets", "/shard/scores"} {
		tp := startTopology(t, ds, S, Config{}, func(shard int, h http.Handler) http.Handler {
			if shard != 1 {
				return h
			}
			return rewriteShard(h, path, cut)
		})
		st, raw := postForm(t, tp.router.URL, body)
		var eb server.ErrorBody
		if st != http.StatusServiceUnavailable || json.Unmarshal(raw, &eb) != nil || eb.Code != CodeShardUnavailable {
			t.Fatalf("cut %s answer: status %d: %s, want 503 %s", path, st, raw, CodeShardUnavailable)
		}
		st, raw = postForm(t, tp.router.URL, anytime)
		if path == "/shard/scores" {
			if st != http.StatusServiceUnavailable {
				t.Fatalf("anytime, cut %s answer: status %d: %s, want 503", path, st, raw)
			}
		} else {
			var fr server.FormResponse
			if st != http.StatusOK || json.Unmarshal(raw, &fr) != nil || !fr.Degraded || fr.Completed != S-1 {
				t.Fatalf("anytime, cut %s answer: status %d: %s, want a degraded 200 over %d shards", path, st, raw, S-1)
			}
		}
		tp.close()
	}

	tp := startTopology(t, ds, S, Config{}, func(shard int, h http.Handler) http.Handler {
		if shard != 0 {
			return h
		}
		return rewriteShard(h, "/shard/scores", func(b []byte) []byte {
			parts, err := wire.ParseScoresResponse(b)
			if err != nil {
				t.Error(err)
				return b
			}
			out := wire.AppendScoresResponse(nil, len(parts))
			for _, ps := range parts {
				out = wire.AppendProbeStats(out, ps.Residents+1, ps.Len())
				for i := range ps.Len() {
					out = wire.AppendItemStats(out, ps.At(i))
				}
			}
			return out
		})
	})
	if st, raw := postForm(t, tp.router.URL, body); st != http.StatusInternalServerError {
		t.Fatalf("resident counts off by one: status %d: %s, want 500", st, raw)
	}
}
