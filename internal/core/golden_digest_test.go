package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/rank"
	"groupform/internal/semantics"
	"groupform/internal/synth"
)

// goldenDigests holds the SHA-256 of json.Marshal(*Result) for every
// cell of TestFormGoldenDigests, keyed by corpus/SEM-AGG. They were
// recorded while the map accumulator still ran beside the dense one
// and both produced these bytes. The worker count must not move a
// byte, so workers 1 and 8 share one digest.
var goldenDigests = map[string]string{
	"sparse/LM-MAX":    "c5bff9dc6abb0930d0ebb64ff9b320cd85038f85d9e9af858b7572c7560a46a2",
	"sparse/LM-MIN":    "d64d7e65436b7bfb8bf6116e2279ffd65439ab03cfa626c3bc36b28fffba9768",
	"sparse/LM-SUM":    "d5b4e020f22b7bb327b09e2c7a6ec8b649c7dc0b14292deba501541d201f482b",
	"sparse/AV-MAX":    "bd5db4f90b764f0351c1889be915230508d6a42ebd49b2764d4ca5ce328d2089",
	"sparse/AV-MIN":    "9ad961ad4cc48041f0e3f2e7eb8e49a07012fe3f18f2d9fae294a7a23625d14b",
	"sparse/AV-SUM":    "0e4a98d4355022401cd7643d23f23cac49197f0490eadaeda18f13fe1ba2e4bc",
	"clustered/LM-MAX": "b75843f8b7316609a8386bdb397d66d42709f96e3727af62d43961deed8b2432",
	"clustered/LM-MIN": "a69ef0bf78dfcf66682e4cd040348b54ff4eb8585eb0c94388ea74d73b26843a",
	"clustered/LM-SUM": "b084237e39cdaa91fce8dc72b4fbe6c6cfd0c396b2b0b79bec3331dcef5f6d2e",
	"clustered/AV-MAX": "7ad0e78cc072910282ac9d4a73c4c6d1e533c9c48eb288c9e8e8bcacc261641c",
	"clustered/AV-MIN": "1e2b47700e180fdff8c90eea3d24fdaa2a665ada970dbb95ffe0648142460c0d",
	"clustered/AV-SUM": "c5b1a1fefa7ff1469dbc710d5f0bcf2146ad1569e8b9b16bdd515de4b2bb71c2",
}

// resultDigest is the hex SHA-256 of res's JSON encoding.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	raw, err := json.Marshal(*res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestFormGoldenDigests pins core.Form's output bytes on both Form
// branches — a sparse corpus (heap branch) and a clustered one with
// few buckets (split branch) — for every semantics, aggregation and
// worker count against committed digests. The scratch-owned FormInto
// serving path must produce the same bytes, with one Scratch reused
// (dirty) across every cell of the sweep.
func TestFormGoldenDigests(t *testing.T) {
	sparse, err := synth.YahooLike(2500, 300, 91)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := synth.Generate(synth.Config{Users: 180, Items: 40, Clusters: 4, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewScratch() // shared across the whole sweep on purpose
	for _, corpus := range []struct {
		name string
		ds   *dataset.Dataset
	}{{"sparse", sparse}, {"clustered", clustered}} {
		for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
			for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
				key := fmt.Sprintf("%s/%s-%s", corpus.name, sem, agg)
				want := goldenDigests[key]
				for _, workers := range []int{1, 8} {
					cfg := Config{K: 4, L: 10, Semantics: sem, Aggregation: agg, Workers: workers}
					label := fmt.Sprintf("%s/workers=%d", key, workers)
					res, err := Form(context.Background(), corpus.ds, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := resultDigest(t, res); got != want {
						t.Fatalf("%s: Form digest %s, want %s", label, got, want)
					}
					prefs, err := rank.AllTopK(corpus.ds, cfg.K, cfg.Missing)
					if err != nil {
						t.Fatal(err)
					}
					into, err := FormInto(context.Background(), corpus.ds, cfg, prefs, scratch)
					if err != nil {
						t.Fatal(err)
					}
					if got := resultDigest(t, into); got != want {
						t.Fatalf("%s: FormInto digest %s, want %s", label, got, want)
					}
				}
			}
		}
	}
}
