package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"groupform/internal/synth"
)

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: invalid name or unit", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step:
// the same workloads, the same metrics with the same units, and each
// workload's why naming the tail percentile the code reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("workload %q is not in the code", sw.Name)
			continue
		}
		if tail := fmt.Sprintf("p%g", w.tail*100); !strings.Contains(sw.Why, tail) {
			t.Errorf("workload %s: why %q does not name its tail %s", sw.Name, sw.Why, tail)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSameSeedSameSequence(t *testing.T) {
	ds, err := synth.YahooLike(500, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func(w workload, seed int64) string {
		cfgs, err := configs(w)
		if err != nil {
			t.Fatal(err)
		}
		seq := makeSequence(w, len(cfgs), 40, subSeed(seed, streamSequence))
		var bodies [][]byte
		if w.writes > 0 {
			if bodies, err = batchBodies(makeBatches(ds, 40*w.writes, subSeed(seed, streamBatches))); err != nil {
				t.Fatal(err)
			}
		}
		return sequenceFingerprint(seq, cfgs, bodies)
	}
	for _, w := range workloads {
		a, b, c := fingerprint(w, 1), fingerprint(w, 1), fingerprint(w, 2)
		if a != b {
			t.Errorf("%s: one seed gave two sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.name)
		}
	}
}

func TestSequenceBlocksAreUniform(t *testing.T) {
	w, _ := findWorkload("ingest")
	seq := makeSequence(w, 24, 10, 5)
	block := 24 + w.writes
	for b := 0; b < 10; b++ {
		counts := map[int]int{}
		for _, s := range seq[b*block : (b+1)*block] {
			counts[s]++
		}
		if counts[writeSlot] != w.writes || len(counts) != 25 {
			t.Fatalf("block %d: %v", b, counts)
		}
	}
}

func TestBatchesTouchEachKeyOnce(t *testing.T) {
	ds, err := synth.YahooLike(500, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	batches := makeBatches(ds, 200, 9)
	type key struct{ u, i int64 }
	seen := map[key]bool{}
	fresh := 0
	last := ds.Users()[len(ds.Users())-1]
	for _, b := range batches {
		for _, r := range b {
			k := key{int64(r.User), int64(r.Item)}
			if seen[k] {
				t.Fatalf("key %v upserted twice", k)
			}
			seen[k] = true
			if old, ok := ds.Rating(r.User, r.Item); ok && old == r.Value {
				t.Fatalf("re-rating %v keeps its value %v", k, old)
			}
			if r.User > last {
				fresh++
				last = max(last, r.User)
			}
		}
	}
	if fresh == 0 {
		t.Error("no fresh users")
	}
	if _, err := applyBatches(ds, batches); err != nil {
		t.Fatal(err)
	}
}
