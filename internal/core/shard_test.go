package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/rank"
	"groupform/internal/semantics"
	"groupform/internal/synth"
)

// bucketize hashes every user's preference list into intermediate
// groups under the configured key (step 1 of the framework), in
// first-seen order, on a throwaway scratch — the serial reference the
// shard-merge tests pin MergeShardBuckets against — and lists them as
// wire records.
func bucketize(prefs []rank.PrefList, cfg Config) []ShardBucket {
	return partitionBuckets(NewScratch().bucketize(prefs, cfg))
}

// partitionBuckets lists p's buckets as wire records aliasing p.
func partitionBuckets(p *Partition) []ShardBucket {
	out := make([]ShardBucket, p.buckets())
	for b := range out {
		items, scores := p.list(b)
		out[b] = ShardBucket{Key: p.key(b), Items: items, Scores: scores, Members: p.membersOf(b)}
	}
	return out
}

// shardedForm runs the full scatter-gather pipeline in-process: cut
// ds into S contiguous shards, bucketize each shard independently,
// merge in shard order, and finalize through the LocalOracle — the
// exact computation the router performs over HTTP.
func shardedForm(t *testing.T, ds *dataset.Dataset, cfg Config, shards int) *Result {
	t.Helper()
	passes := make([][]ShardBucket, shards)
	for s := 0; s < shards; s++ {
		sds, err := ds.ShardUsers(s, shards)
		if err != nil {
			t.Fatal(err)
		}
		pass, err := BucketizeShard(context.Background(), sds, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		passes[s] = pass.Buckets
	}
	merged := MergeShardBuckets(passes, cfg)
	res, err := FinalizeMerged(context.Background(), cfg, merged, LocalOracle{DS: ds, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedFormParity is the scale-out tier's core contract: for
// every dataset, semantics, aggregation and shard count, the
// sharded pipeline's result is byte-identical to the single-node
// Form. Under LM this is exact by construction (min is associative
// and the merge replays the serial keep-first fold); under AV the
// per-shard partial sums reassociate the serial member order, but
// the synthetic corpus rates on the integer 1-5 scale where every
// partial sum is exactly representable, so equality is bitwise there
// too (the non-dyadic bound is TestShardedFormAVBound).
func TestShardedFormParity(t *testing.T) {
	for name, ds := range parallelCorpus(t) {
		for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
			for _, agg := range []semantics.Aggregation{
				semantics.Max, semantics.Min, semantics.Sum, semantics.WeightedSumLog,
			} {
				cfg := Config{K: 5, L: 10, Semantics: sem, Aggregation: agg}
				single, err := Form(context.Background(), ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []int{1, 2, 3, 7} {
					label := fmt.Sprintf("%s/%s-%s/shards=%d", name, sem, agg, s)
					sharded := shardedForm(t, ds, cfg, s)
					requireSameResult(t, label, single, sharded)
				}
			}
		}
	}
}

// TestShardedFormParitySplitBranch pins the other finalization
// branch: a clustered dataset with few buckets and a large L drives
// the split plan (surplus pieces, par.Range cuts, the refold rule),
// which must survive the oracle indirection byte-for-byte as well.
func TestShardedFormParitySplitBranch(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Users: 90, Items: 30, Clusters: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
			for _, l := range []int{8, 40, 90} {
				cfg := Config{K: 4, L: l, Semantics: sem, Aggregation: agg}
				single, err := Form(context.Background(), ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []int{1, 2, 3, 7} {
					label := fmt.Sprintf("%s-%s/L=%d/shards=%d", sem, agg, l, s)
					sharded := shardedForm(t, ds, cfg, s)
					requireSameResult(t, label, single, sharded)
				}
			}
		}
	}
}

// nonDyadicDataset rates on a 0.1 grid — values float64 cannot
// represent exactly, so AV partial sums genuinely reassociate.
func nonDyadicDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder(dataset.Scale{Min: 0, Max: 1})
	for u := 0; u < 60; u++ {
		for i := 0; i < 12; i++ {
			if (u+i)%3 == 0 {
				continue
			}
			v := 0.1 * float64(1+(u*7+i*5)%9)
			if err := b.Add(dataset.UserID(u), dataset.ItemID(i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

// TestShardedFormAVBound asserts the proven AV guarantee on a rating
// scale that is NOT exactly representable. What is provable there is
// a bound on the *scores*: reassociating a recursive sum of m terms
// each bounded by M perturbs it by at most m²·eps·M (a loose form of
// the classical summation error bound, eps = 2^-52). The pipeline's
// discrete choices (heap order, piece cuts) are then made on those
// perturbed scores — a tie between two buckets separated by less
// than the slack may legally resolve differently than single-node,
// changing group composition, which is exactly why the tier's
// contract is "exact for LM, bounded-error for AV". So the test
// pins (a) every merged bucket score within slack of the serial
// fold's, and (b) every formed group's reported item scores and
// satisfaction within slack of an independent direct recomputation
// over that group's own members.
func TestShardedFormAVBound(t *testing.T) {
	ds := nonDyadicDataset(t)
	eps := math.Ldexp(1, -52)
	n := float64(ds.NumUsers())
	slack := n * n * eps // per-score: sums of <= n terms, each |w·v| <= 1
	for _, agg := range []semantics.Aggregation{semantics.Sum, semantics.Min, semantics.Max} {
		cfg := Config{K: 3, L: 6, Semantics: semantics.AV, Aggregation: agg, Missing: 0.05}
		prefs, err := rank.AllTopKParallel(context.Background(), ds, cfg.K, cfg.Missing, 1)
		if err != nil {
			t.Fatal(err)
		}
		serial := bucketize(prefs, cfg)
		sc := cfg.scorer(ds)
		sc.Workers = 1
		for _, s := range []int{1, 2, 3, 7} {
			passes := make([][]ShardBucket, s)
			for i := 0; i < s; i++ {
				sds, err := ds.ShardUsers(i, s)
				if err != nil {
					t.Fatal(err)
				}
				pass, err := BucketizeShard(context.Background(), sds, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				passes[i] = pass.Buckets
			}
			merged := MergeShardBuckets(passes, cfg)
			if len(merged) != len(serial) {
				t.Fatalf("AV-%s shards=%d: %d buckets != %d", agg, s, len(merged), len(serial))
			}
			for i, m := range merged {
				for j, v := range m.Scores {
					if d := math.Abs(v - serial[i].Scores[j]); d > slack {
						t.Fatalf("AV-%s shards=%d: bucket %d score %d drift %g > %g", agg, s, i, j, d, slack)
					}
				}
			}
			sharded, err := FinalizeMerged(context.Background(), cfg, merged, LocalOracle{DS: ds, Cfg: cfg})
			if err != nil {
				t.Fatal(err)
			}
			for gi, g := range sharded.Groups {
				recomputed := make([]float64, len(g.Items))
				for j, it := range g.Items {
					recomputed[j] = sc.ItemScore(semantics.AV, g.Members, it)
					if d := math.Abs(g.ItemScores[j] - recomputed[j]); d > slack {
						t.Fatalf("AV-%s shards=%d: group %d item %d drift %g > %g", agg, s, gi, j, d, slack)
					}
				}
				// Aggregations of K scores each within slack stay
				// within K·slack plus K more roundings of the same
				// magnitude.
				aggSlack := float64(cfg.K+1) * slack
				if d := math.Abs(g.Satisfaction - cfg.Aggregation.Aggregate(recomputed)); d > aggSlack {
					t.Fatalf("AV-%s shards=%d: group %d satisfaction drift %g > %g", agg, s, gi, d, aggSlack)
				}
			}
		}
	}
}

// TestShardedFormLMNonDyadicExact: LM's exactness claim does not
// ride on an exactly-representable rating scale — min never rounds —
// so on the same non-dyadic data the LM parity stays byte-identical.
func TestShardedFormLMNonDyadicExact(t *testing.T) {
	ds := nonDyadicDataset(t)
	for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
		cfg := Config{K: 3, L: 6, Semantics: semantics.LM, Aggregation: agg, Missing: 0.05}
		single, err := Form(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int{1, 2, 3, 7} {
			sharded := shardedForm(t, ds, cfg, s)
			requireSameResult(t, fmt.Sprintf("LM-%s/shards=%d", agg, s), single, sharded)
		}
	}
}

// TestMergeShardBucketsMatchesSerial checks the merge against the
// serial reference directly: merging per-shard bucketize outputs
// must reproduce the single-pass bucket list — same keys in the same
// first-seen order, same folded scores, same members in pref order.
func TestMergeShardBucketsMatchesSerial(t *testing.T) {
	ds, err := synth.YahooLike(500, 80, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{semantics.Max, semantics.Min, semantics.Sum} {
			cfg := Config{K: 4, L: 10, Semantics: sem, Aggregation: agg}
			prefs, err := rank.AllTopKParallel(context.Background(), ds, cfg.K, cfg.Missing, 1)
			if err != nil {
				t.Fatal(err)
			}
			serial := bucketize(prefs, cfg)
			for _, s := range []int{2, 3, 7} {
				passes := make([][]ShardBucket, s)
				for i := 0; i < s; i++ {
					sds, err := ds.ShardUsers(i, s)
					if err != nil {
						t.Fatal(err)
					}
					pass, err := BucketizeShard(context.Background(), sds, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					passes[i] = pass.Buckets
				}
				merged := MergeShardBuckets(passes, cfg)
				if len(merged) != len(serial) {
					t.Fatalf("%s-%s shards=%d: %d buckets != %d", sem, agg, s, len(merged), len(serial))
				}
				for i, m := range merged {
					want := serial[i]
					if string(m.Key) != string(want.Key) {
						t.Fatalf("%s-%s shards=%d: bucket %d key mismatch", sem, agg, s, i)
					}
					if !reflect.DeepEqual(m.Items, want.Items) || !reflect.DeepEqual(m.Members, want.Members) {
						t.Fatalf("%s-%s shards=%d: bucket %d items/members mismatch", sem, agg, s, i)
					}
					if sem == semantics.LM && !reflect.DeepEqual(m.Scores, want.Scores) {
						t.Fatalf("%s-%s shards=%d: bucket %d scores mismatch", sem, agg, s, i)
					}
				}
			}
		}
	}
}

// TestCombineBoundsMatchesAnytimeBound: the per-shard decomposition
// reassembles to exactly the single-node admissible bound (LM: max
// of maxes; AV: integer-rating partials sum exactly).
func TestCombineBoundsMatchesAnytimeBound(t *testing.T) {
	ds, err := synth.MovieLensLike(800, 120, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		cfg := Config{K: 5, L: 12, Semantics: sem, Aggregation: semantics.Sum}
		prefs, err := rank.AllTopKParallel(context.Background(), ds, cfg.K, cfg.Missing, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := anytimeBound(prefs, cfg)
		for _, s := range []int{1, 3, 7} {
			contribs := make([]float64, s)
			users := 0
			for i := 0; i < s; i++ {
				sds, err := ds.ShardUsers(i, s)
				if err != nil {
					t.Fatal(err)
				}
				sp, err := rank.AllTopKParallel(context.Background(), sds, cfg.K, cfg.Missing, 1)
				if err != nil {
					t.Fatal(err)
				}
				contribs[i] = BoundContribution(sp, cfg)
				users += sds.NumUsers()
			}
			if got := CombineBounds(contribs, users, cfg); got != want {
				t.Fatalf("%s shards=%d: combined bound %v != %v", sem, s, got, want)
			}
		}
	}
}

// TestFinalizeMergedRejectsBadInput: every malformed call is refused
// up front with an ErrBadConfig-wrapping error and no Result.
func TestFinalizeMergedRejectsBadInput(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Users: 90, Items: 30, Clusters: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, L: 8, Semantics: semantics.LM, Aggregation: semantics.Min}
	pass, err := BucketizeShard(context.Background(), ds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := pass.Buckets
	o := LocalOracle{DS: ds, Cfg: cfg}
	withBucket := func(edit func(*ShardBucket)) []ShardBucket {
		bs := slices.Clone(good)
		edit(&bs[0])
		return bs
	}
	withCfg := func(edit func(*Config)) Config {
		c := cfg
		edit(&c)
		return c
	}
	cases := []struct {
		name   string
		cfg    Config
		merged []ShardBucket
		o      ScoreOracle
	}{
		{"empty merged list", cfg, nil, o},
		{"nil oracle", cfg, good, nil},
		{"bucket without members", cfg, withBucket(func(b *ShardBucket) { b.Members = nil }), o},
		{"items/scores length mismatch", cfg, withBucket(func(b *ShardBucket) { b.Scores = b.Scores[:1] }), o},
		{"K <= 0", withCfg(func(c *Config) { c.K = 0 }), good, o},
		{"L <= 0", withCfg(func(c *Config) { c.L = -1 }), good, o},
		{"invalid semantics", withCfg(func(c *Config) { c.Semantics = 7 }), good, o},
		{"NaN missing", withCfg(func(c *Config) { c.Missing = math.NaN() }), good, o},
		{"-Inf missing", withCfg(func(c *Config) { c.Missing = math.Inf(-1) }), good, o},
		{"+Inf weight", withCfg(func(c *Config) { c.UserWeights = map[dataset.UserID]float64{1: math.Inf(1)} }), good, o},
		{"NaN quality target", withCfg(func(c *Config) { c.Anytime, c.QualityTarget = true, math.NaN() }), good, o},
	}
	for _, c := range cases {
		res, err := FinalizeMerged(context.Background(), c.cfg, c.merged, c.o)
		if res != nil || !errors.Is(err, gferr.ErrBadConfig) {
			t.Errorf("%s: got (%v, %v), want a nil Result and ErrBadConfig", c.name, res, err)
		}
	}
}

// TestLocalOracleRejectsAbsentIDs: a probe naming a user or item the
// dataset does not hold is a configuration error, never a score
// computed for some other index.
func TestLocalOracleRejectsAbsentIDs(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Users: 20, Items: 10, Clusters: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	o := LocalOracle{DS: ds, Cfg: Config{K: 2, L: 2, Semantics: semantics.LM, Aggregation: semantics.Min}}
	u, it := ds.Users()[0], ds.Items()[0]
	probes := map[string]struct {
		members []dataset.UserID
		items   []dataset.ItemID
	}{
		"absent member": {[]dataset.UserID{u, 1 << 30}, []dataset.ItemID{it}},
		"absent item":   {[]dataset.UserID{u}, []dataset.ItemID{it, 1 << 30}},
	}
	for name, p := range probes {
		for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
			if _, err := o.GroupScores(context.Background(), sem, p.members, p.items); !errors.Is(err, gferr.ErrBadConfig) {
				t.Errorf("%s/%s: err = %v, want ErrBadConfig", name, sem, err)
			}
		}
	}
}

// tripCtx is live for its first `remaining` Err polls and canceled
// from then on, so sweeping remaining from 0 to exhaustion cuts a
// serial call at every cancellation touchpoint it passes.
type tripCtx struct {
	context.Context
	remaining int
}

func (c *tripCtx) Err() error {
	if c.remaining == 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestFinalizeMergedCancellationSweep cuts FinalizeMerged at every
// cancellation poll on both finalization branches, under LM and AV:
// every cut returns a nil Result and an ErrCanceled error, so the
// router never receives a degraded prefix, and a context that outlives
// every poll reproduces the uncut result byte for byte.
func TestFinalizeMergedCancellationSweep(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Users: 90, Items: 30, Clusters: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	const maxCalls = 1 << 20
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{semantics.Min, semantics.Max} {
			for _, l := range []int{2, 40} {
				cfg := Config{K: 4, L: l, Semantics: sem, Aggregation: agg}
				label := fmt.Sprintf("%s-%s/L=%d", sem, agg, l)
				passes := make([][]ShardBucket, 3)
				for s := range passes {
					sds, err := ds.ShardUsers(s, len(passes))
					if err != nil {
						t.Fatal(err)
					}
					pass, err := BucketizeShard(context.Background(), sds, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					passes[s] = pass.Buckets
				}
				merged := MergeShardBuckets(passes, cfg)
				if split := len(merged) <= l; split != (l == 40) {
					t.Fatalf("%s: %d buckets do not select the intended branch", label, len(merged))
				}
				o := LocalOracle{DS: ds, Cfg: cfg}
				probe := &tripCtx{Context: context.Background(), remaining: maxCalls}
				want, err := FinalizeMerged(probe, cfg, merged, o)
				if err != nil {
					t.Fatalf("%s: uncut run: %v", label, err)
				}
				calls := maxCalls - probe.remaining
				for n := 0; n <= calls; n++ {
					res, err := FinalizeMerged(&tripCtx{Context: context.Background(), remaining: n}, cfg, merged, o)
					if n == calls {
						if err != nil || !reflect.DeepEqual(res, want) {
							t.Fatalf("%s: exhausted context (%d polls) gave (%+v, %v), want the uncut result", label, n, res, err)
						}
						continue
					}
					if res != nil || !errors.Is(err, gferr.ErrCanceled) {
						t.Fatalf("%s: cut at poll %d of %d gave (%+v, %v), want a nil Result and ErrCanceled", label, n, calls, res, err)
					}
				}
			}
		}
	}
}

// TestBucketizeShardAllocsFlat: BucketizeShard's wire copies are
// carved from one array per slice kind, so a call's allocations do not
// grow with its bucket count (they were four per bucket: 19,002 at
// this catalog's 4,750 LM-MIN buckets). GC is held off so the pooled
// scratch stays warm across the measured calls.
func TestBucketizeShardAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool, so the pooled scratch does not stay warm")
	}
	ds, err := synth.YahooLike(10_000, 1_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	prefs, err := rank.AllTopK(ds, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	for _, cfg := range []Config{
		{K: 5, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min},
		{K: 5, L: 10, Semantics: semantics.AV, Aggregation: semantics.Sum},
	} {
		pass, err := BucketizeShard(ctx, ds, cfg, prefs)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := BucketizeShard(ctx, ds, cfg, prefs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("%s: %v allocs per call over %d buckets, want at most 8", cfg.AlgorithmName(), allocs, len(pass.Buckets))
		}
	}
}
