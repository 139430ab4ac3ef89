package groupform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"groupform/internal/synth"
)

// TestPipelineEndToEnd exercises the full production path a
// recommender-system operator would run: generate (stand-in for
// collect) sparse explicit feedback, trim low-activity users/items,
// persist and reload it, train a predictor, densify onto the rating
// lattice, form groups under every semantics/aggregation pair, and
// evaluate the groupings.
func TestPipelineEndToEnd(t *testing.T) {
	raw, err := Generate(SynthConfig{
		Users: 120, Items: 60, Clusters: 10, RatingsPerUser: 25,
		ExploreFrac: 0.2, NoiseRate: 0.1, OrderCorrelation: 0.3, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-processing: the paper trims Yahoo! Music to >= 20 ratings
	// per user and >= 20 per item; scale the thresholds down.
	trimmed := raw.Trim(10, 3)
	if trimmed.NumUsers() == 0 {
		t.Fatal("trim removed everyone")
	}
	for _, u := range trimmed.Users() {
		if len(trimmed.UserRatings(u)) < 10 {
			t.Fatalf("user %d under threshold after trim", u)
		}
	}

	// Persistence round trip.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trimmed); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadCSV(&buf, DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.NumRatings() != trimmed.NumRatings() {
		t.Fatalf("round trip lost ratings: %d vs %d", reloaded.NumRatings(), trimmed.NumRatings())
	}

	// Prediction layer.
	pred, err := NewUserKNN(reloaded, 10)
	if err != nil {
		t.Fatal(err)
	}
	full, err := DensifyQuantized(reloaded, pred, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumRatings() != full.NumUsers()*full.NumItems() {
		t.Fatal("densify incomplete")
	}

	// Formation under all six algorithm variants.
	for _, sem := range []Semantics{LM, AV} {
		for _, agg := range []Aggregation{Max, Min, Sum} {
			cfg := Config{K: 5, L: 8, Semantics: sem, Aggregation: agg}
			res, err := solveOnce("grd", full, cfg)
			if err != nil {
				t.Fatalf("%v-%v: %v", sem, agg, err)
			}
			if len(res.Groups) == 0 || len(res.Groups) > 8 {
				t.Fatalf("%v-%v: %d groups", sem, agg, len(res.Groups))
			}
			covered := 0
			total := 0.0
			for _, g := range res.Groups {
				covered += g.Size()
				total += g.Satisfaction
			}
			if covered != full.NumUsers() {
				t.Fatalf("%v-%v: covered %d of %d users", sem, agg, covered, full.NumUsers())
			}
			if math.Abs(total-res.Objective) > 1e-9 {
				t.Fatalf("%v-%v: objective mismatch", sem, agg)
			}

			// Evaluation metrics all work on the result.
			if _, err := AvgGroupSatisfaction(res); err != nil {
				t.Fatal(err)
			}
			if _, err := AvgGroupSatisfactionPerMember(res); err != nil {
				t.Fatal(err)
			}
			if _, err := GroupSizeSummary(res); err != nil {
				t.Fatal(err)
			}
			sat, err := PerUserSatisfaction(full, res, 0)
			if err != nil || len(sat) != full.NumUsers() {
				t.Fatalf("per-user satisfaction: %v (%d entries)", err, len(sat))
			}
			ndcg, err := MeanNDCG(full, res, 0)
			if err != nil || ndcg <= 0 || ndcg > 1+1e-9 {
				t.Fatalf("NDCG = %v, err %v", ndcg, err)
			}
		}
	}
}

// TestPipelineComparesAlgorithms runs greedy, baseline and the local
// search on the same densified instance and checks the expected
// dominance ordering of the objective.
func TestPipelineComparesAlgorithms(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Users: 100, Items: 40, Clusters: 12, NoiseRate: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, L: 8, Semantics: LM, Aggregation: Min}
	grd, err := solveOnce("grd", ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := solveOnce("ls", ds, cfg, WithLSOptions(LSOptions{Iterations: 3000, Anneal: true, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	base, err := solveOnce("baseline-kmeans", ds, cfg, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Objective < grd.Objective {
		t.Errorf("local search %v below its greedy seed %v", ls.Objective, grd.Objective)
	}
	if grd.Objective < base.Objective {
		t.Errorf("GRD %v below clustering baseline %v on clustered data", grd.Objective, base.Objective)
	}
}

// serverGroup mirrors the serving API's group JSON for the e2e test.
type serverGroup struct {
	Members      []UserID  `json:"members"`
	Items        []ItemID  `json:"items"`
	ItemScores   []float64 `json:"item_scores"`
	Satisfaction float64   `json:"satisfaction"`
	Merged       bool      `json:"merged,omitempty"`
}

// serverResult mirrors the serving API's /form and /solve response.
type serverResult struct {
	Dataset   string        `json:"dataset"`
	Algorithm string        `json:"algorithm"`
	Objective float64       `json:"objective"`
	Buckets   int           `json:"buckets"`
	Groups    []serverGroup `json:"groups"`
}

// postE2E posts one JSON body and decodes the response into out.
func postE2E(t *testing.T, base, path string, body []byte, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d (want %d): %s", path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: decode %s: %v", path, raw, err)
		}
	}
}

// checkCoverage asserts a serving result partitions all n users.
func checkCoverage(t *testing.T, where string, res serverResult, n int) {
	t.Helper()
	covered := 0
	total := 0.0
	for _, g := range res.Groups {
		covered += len(g.Members)
		total += g.Satisfaction
	}
	if covered != n {
		t.Fatalf("%s: covered %d of %d users", where, covered, n)
	}
	if math.Abs(total-res.Objective) > 1e-9 {
		t.Fatalf("%s: objective %v != summed satisfaction %v", where, res.Objective, total)
	}
}

// TestServerEndToEnd is the serving tier's smoke pipeline over real
// HTTP: generate data (the datagen path), upload it to a fresh server
// on a random port, query /form, /form/batch and /solve?algo=ls,
// hot-swap the dataset through a binary re-upload, and query again —
// every answer checked against the in-process library as oracle.
func TestServerEndToEnd(t *testing.T) {
	// datagen equivalent: a clustered synthetic dataset, as CSV bytes.
	ds1, err := Generate(SynthConfig{
		Users: 150, Items: 50, Clusters: 10, RatingsPerUser: 25, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, ds1); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(ServerConfig{MaxInflight: 32})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Boot state: healthy, zero datasets, solves 404.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz before upload: %d", resp.StatusCode)
	}
	formBody := []byte(`{"dataset":"e2e","k":4,"l":6,"semantics":"lm","agg":"min"}`)
	postE2E(t, ts.URL, "/form", formBody, http.StatusNotFound, nil)

	// Upload the CSV (201 created).
	var up struct {
		Users    int  `json:"users"`
		Ratings  int  `json:"ratings"`
		Replaced bool `json:"replaced"`
	}
	postE2E(t, ts.URL, "/datasets/e2e", csv.Bytes(), http.StatusCreated, &up)
	if up.Users != ds1.NumUsers() || up.Ratings != ds1.NumRatings() || up.Replaced {
		t.Fatalf("upload stats %+v vs dataset %d users %d ratings", up, ds1.NumUsers(), ds1.NumRatings())
	}

	// /form matches the library oracle.
	cfg := Config{K: 4, L: 6, Semantics: LM, Aggregation: Min}
	eng1, err := NewEngine(ds1)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := eng1.Form(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got serverResult
	postE2E(t, ts.URL, "/form", formBody, http.StatusOK, &got)
	checkCoverage(t, "/form", got, ds1.NumUsers())
	if got.Objective != want1.Objective || len(got.Groups) != len(want1.Groups) || got.Algorithm != want1.Algorithm {
		t.Fatalf("/form diverges from oracle: got (%v, %d, %s), want (%v, %d, %s)",
			got.Objective, len(got.Groups), got.Algorithm, want1.Objective, len(want1.Groups), want1.Algorithm)
	}

	// /form/batch: every item covered and consistent.
	var batch struct {
		Results []struct {
			Result *serverResult   `json:"result"`
			Error  *map[string]any `json:"error"`
		} `json:"results"`
	}
	batchBody := []byte(`{"dataset":"e2e","requests":[
		{"k":4,"l":6,"semantics":"lm","agg":"min"},
		{"k":3,"l":5,"semantics":"av","agg":"sum"}]}`)
	postE2E(t, ts.URL, "/form/batch", batchBody, http.StatusOK, &batch)
	if len(batch.Results) != 2 {
		t.Fatalf("batch returned %d results", len(batch.Results))
	}
	for i, item := range batch.Results {
		if item.Result == nil {
			t.Fatalf("batch item %d errored: %v", i, item.Error)
		}
		checkCoverage(t, fmt.Sprintf("batch[%d]", i), *item.Result, ds1.NumUsers())
	}
	if batch.Results[0].Result.Objective != want1.Objective {
		t.Fatal("batch item 0 diverges from the /form oracle")
	}

	// /solve?algo=ls at least matches its greedy seed.
	var ls serverResult
	postE2E(t, ts.URL, "/solve?algo=ls", []byte(`{"dataset":"e2e","k":4,"l":6,"semantics":"lm","agg":"min","seed":7}`),
		http.StatusOK, &ls)
	checkCoverage(t, "/solve", ls, ds1.NumUsers())
	if ls.Objective < want1.Objective-1e-9 {
		t.Fatalf("local search %v below its greedy seed %v", ls.Objective, want1.Objective)
	}

	// Hot-swap: a different dataset, uploaded in binary this time.
	ds2, err := Generate(SynthConfig{
		Users: 120, Items: 40, Clusters: 8, RatingsPerUser: 20, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, ds2); err != nil {
		t.Fatal(err)
	}
	postE2E(t, ts.URL, "/datasets/e2e", bin.Bytes(), http.StatusOK, &up)
	if !up.Replaced || up.Users != ds2.NumUsers() {
		t.Fatalf("hot-swap upload stats %+v", up)
	}

	// /form now answers from the swapped engine.
	eng2, err := NewEngine(ds2)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := eng2.Form(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	postE2E(t, ts.URL, "/form", formBody, http.StatusOK, &got)
	checkCoverage(t, "/form after swap", got, ds2.NumUsers())
	if got.Objective != want2.Objective || len(got.Groups) != len(want2.Groups) {
		t.Fatalf("post-swap /form diverges from oracle on ds2: got (%v, %d), want (%v, %d)",
			got.Objective, len(got.Groups), want2.Objective, len(want2.Groups))
	}

	// Health reflects the loaded dataset.
	var health struct {
		Status   string   `json:"status"`
		Datasets []string `json:"datasets"`
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Datasets) != 1 || health.Datasets[0] != "e2e" {
		t.Fatalf("healthz = %s", raw)
	}
}

// TestWeightedFormationThroughFacade checks the user-weights
// extension end to end via the public API.
func TestWeightedFormationThroughFacade(t *testing.T) {
	ds, err := FromDense(DefaultScale, [][]float64{
		{5, 1}, {1, 5}, {1, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveOnce("grd", ds, Config{
		K: 1, L: 1, Semantics: AV, Aggregation: Min,
		UserWeights: map[UserID]float64{0: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Items[0] != 0 {
		t.Errorf("weighted AV should favor the heavy user's item, got %d", res.Groups[0].Items[0])
	}
}
