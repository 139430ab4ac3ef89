package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/rank"
	"groupform/internal/semantics"
	"groupform/internal/synth"
)

// TestPartitionKinds: configurations of one kind over one set of
// lists bucketize identically — the same keys, lists, scores and
// members in the same order — and every kind differs from the others
// somewhere on this catalog; weighted AV has no kind.
func TestPartitionKinds(t *testing.T) {
	ds, err := synth.YahooLike(800, 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	prefs, err := rank.AllTopK(ds, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[int][]ShardBucket{}
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum, semantics.WeightedSumPos, semantics.WeightedSumLog} {
			cfg := Config{K: 3, L: 5, Semantics: sem, Aggregation: agg}
			kind, ok := cfg.PartitionKind()
			if !ok || kind < 0 || kind >= PartitionKinds {
				t.Fatalf("%s: kind %d ok=%v", cfg.AlgorithmName(), kind, ok)
			}
			got := bucketize(prefs, cfg)
			if want, seen := byKind[kind]; !seen {
				byKind[kind] = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: buckets differ from another configuration of kind %d", cfg.AlgorithmName(), kind)
			}
		}
	}
	if len(byKind) != PartitionKinds {
		t.Fatalf("%d kinds seen, want %d", len(byKind), PartitionKinds)
	}
	for a := range byKind {
		for b := range byKind {
			if a < b && reflect.DeepEqual(byKind[a], byKind[b]) {
				t.Fatalf("kinds %d and %d bucketize identically", a, b)
			}
		}
	}
	weighted := Config{K: 3, L: 5, Semantics: semantics.AV, Aggregation: semantics.Sum, UserWeights: map[dataset.UserID]float64{1: 2}}
	if _, ok := weighted.PartitionKind(); ok {
		t.Fatal("weighted AV reports a partition kind")
	}
	if _, err := NewPartition(context.Background(), ds, weighted, prefs); !errors.Is(err, gferr.ErrBadConfig) {
		t.Fatalf("NewPartition(weighted AV) err = %v, want ErrBadConfig", err)
	}
}

// TestPartitionPathsMatch: every entry point started from a cached
// partition answers what the bucketizing path does — FormPartitionInto
// and FormInto, FormWithPartition and FormWithPrefs, and
// BucketizeShardWithPartition and BucketizeShard — over both
// finalization branches and every worker count, with one partition per
// kind shared by the configurations of that kind. A partition built
// for another configuration is rejected.
func TestPartitionPathsMatch(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Users: 600, Items: 90, Clusters: 12, RatingsPerUser: 15, OrderCorrelation: 0.8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, ref := NewScratch(), NewScratch()
	for k := 2; k <= 4; k++ {
		prefs, err := rank.AllTopK(ds, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var parts [PartitionKinds]*Partition
		for _, l := range []int{4, 400} {
			for _, cfg := range everyConfig(l) {
				if cfg.K != k {
					continue
				}
				cfg.Missing = 0.5
				kind, _ := cfg.PartitionKind()
				if parts[kind] == nil {
					if parts[kind], err = NewPartition(ctx, ds, cfg, prefs); err != nil {
						t.Fatal(err)
					}
				}
				part := parts[kind]
				for _, w := range []int{1, 3} {
					cfg.Workers = w
					name := cfg.AlgorithmName()
					want, err := FormInto(ctx, ds, cfg, prefs, ref)
					if err != nil {
						t.Fatal(err)
					}
					got, err := FormPartitionInto(ctx, ds, cfg, prefs, part, s)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s K=%d L=%d w=%d: FormPartitionInto differs from FormInto", name, k, l, w)
					}
					owned, err := FormWithPartition(ctx, ds, cfg, prefs, part)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(owned, want) {
						t.Fatalf("%s K=%d L=%d w=%d: FormWithPartition differs from FormInto", name, k, l, w)
					}
					wantPass, err := BucketizeShard(ctx, ds, cfg, prefs)
					if err != nil {
						t.Fatal(err)
					}
					gotPass, err := BucketizeShardWithPartition(ctx, ds, cfg, prefs, part)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotPass, wantPass) {
						t.Fatalf("%s K=%d: BucketizeShardWithPartition differs from BucketizeShard", name, k)
					}
				}
			}
		}
		other := Config{K: k, L: 4, Semantics: semantics.LM, Aggregation: semantics.Max, Missing: 0.5}
		if _, err := FormPartitionInto(ctx, ds, other, prefs, parts[0], s); !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("LM-MIN partition for an LM-MAX run: err = %v, want ErrBadConfig", err)
		}
		other.Aggregation, other.Missing = semantics.Min, 0
		if _, err := FormPartitionInto(ctx, ds, other, prefs, parts[0], s); !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("partition for another Missing: err = %v, want ErrBadConfig", err)
		}
	}
}

// TestPartitionIsReadOnly: runs started from a partition leave it as
// NewPartition built it, on both branches and when a FormInto result
// aliasing it has been consumed, and a copied-out result shares none of
// its memory.
func TestPartitionIsReadOnly(t *testing.T) {
	ds, err := synth.YahooLike(700, 80, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := Config{K: 2, L: 3, Semantics: semantics.LM, Aggregation: semantics.Min}
	prefs, err := rank.AllTopK(ds, cfg.K, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(ctx, ds, cfg, prefs)
	if err != nil {
		t.Fatal(err)
	}
	before := part.clone()
	s := NewScratch()
	for _, l := range []int{3, 5000} {
		cfg.L = l
		if _, err := FormPartitionInto(ctx, ds, cfg, prefs, part, s); err != nil {
			t.Fatal(err)
		}
		res, err := FormWithPartition(ctx, ds, cfg, prefs, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			for i := range g.Members {
				g.Members[i] = -1
			}
			for i := range g.ItemScores {
				g.ItemScores[i] = -1
			}
		}
	}
	before.k, before.kind, before.missing = part.k, part.kind, part.missing
	if !reflect.DeepEqual(part, before) {
		t.Fatal("a run wrote its partition")
	}
}
