// Sharded bucketizing for the parallel formation pipeline.
//
// The determinism contract: bucketizeParallel must return exactly the
// buckets bucketize returns — same keys, same member order, same
// score bits — for every worker count. Three properties deliver that:
//
//  1. Shards are contiguous ranges of the (sorted-user-order) pref
//     list slice, and the merge visits shards in ascending order, so
//     a bucket's members concatenate in the same order the serial
//     pass appends them (the member arena is filled by one walk over
//     the shards' assignment arrays in global pref order).
//  2. A shard-local bucket's scores are the serial left fold over the
//     shard's own members (shard passes run the same seed/fold code
//     as the serial pass). The merge adopts the partial of the first
//     shard that saw the key — the serial fold's prefix — and folds
//     later shards in, in order. Under AV it replays every later
//     member one at a time through the same foldBucketMember,
//     reproducing the serial fold's exact operation sequence, so the
//     non-associative float sums come out bit-identical regardless
//     of where the shard boundaries fall. Under LM the shard partial
//     merges directly by element-wise min, which is bit-exact
//     because min with strict-< keep-first semantics is associative:
//     both the flat fold and the fold of shard folds keep the
//     earliest minimal element's bit pattern.
//  3. Shard-local buckets are stored in first-seen order (a slice,
//     not a map), so the merge sequence is fully deterministic; and
//     within one key the member/score order is fixed by 1 and 2
//     anyway, so bucket enumeration order never reaches the output.
//
// Like the serial pass, shards intern one key string per distinct
// shard-local bucket, record assignments in flat arrays, and the
// merged members are carved from the shared arena — no per-user
// allocations.
//
// The replay needs each member's original preference scores after the
// shard pass mutated its local fold, which holds because buckets
// always fold into their own copy of the score positions (seedBucket).
package core

import (
	"groupform/internal/par"
	"groupform/internal/rank"
	"groupform/internal/semantics"
)

// shardBuckets is one worker's intermediate groups over a contiguous
// shard of the preference lists.
type shardBuckets struct {
	// recs are the shard-local buckets in first-seen order.
	recs []bucket
	// counts[li] is the shard-local member count of recs[li].
	counts []int32
	// assign[i-lo] is the shard-local bucket index of pref i.
	assign []int32
}

// bucketizeParallel builds the same buckets bucketize builds, using
// one contiguous pref-list shard per worker and an order-replaying
// merge. See the file comment for why the output is byte-identical to
// the serial pass for every worker count. The shard passes allocate
// their own bucket state (they run concurrently and must not share
// the scratch); scr serves only the single-threaded merge — its
// member arena and fill bookkeeping.
func bucketizeParallel(prefs []rank.PrefList, cfg Config, workers int, scr *Scratch) []*bucket {
	ranges := par.Ranges(len(prefs), workers)
	shards := make([]shardBuckets, len(ranges))
	par.Do(len(ranges), workers, func(s int) {
		lo, hi := ranges[s][0], ranges[s][1]
		sh := shardBuckets{assign: make([]int32, hi-lo)}
		byKey := make(map[string]int32)
		var keyBuf []byte
		for i := lo; i < hi; i++ {
			p := prefs[i]
			keyBuf = appendKey(keyBuf[:0], p, cfg)
			idx, ok := byKey[string(keyBuf)]
			if !ok {
				items, scores := (*Scratch)(nil).seedBucket(p, cfg)
				key := string(keyBuf)
				idx = int32(len(sh.recs))
				byKey[key] = idx
				sh.recs = append(sh.recs, bucket{key: key, items: items, scores: scores})
				sh.counts = append(sh.counts, 0)
			} else {
				foldBucketMember(sh.recs[idx].scores, p, cfg)
			}
			sh.assign[i-lo] = idx
			sh.counts[idx]++
		}
		shards[s] = sh
	})

	// Merge pass 1: the global bucket list in (shard, first-seen)
	// order. The first shard to see a key donates its partial fold —
	// exactly the serial fold's prefix; LM partials from later shards
	// merge element-wise here (property 2). The summed shard-local
	// bucket counts bound the global count, so every merge structure
	// allocates once up front.
	bound := 0
	for s := range shards {
		bound += len(shards[s].recs)
	}
	byKey := make(map[string]int32, bound)
	bs := make([]bucket, 0, bound)
	counts := make([]int32, 0, bound)
	donor := make([]int32, 0, bound) // global bucket -> shard whose partial was adopted
	lut := make([][]int32, len(shards))
	for s := range shards {
		sh := &shards[s]
		l := make([]int32, len(sh.recs))
		for li := range sh.recs {
			sb := &sh.recs[li]
			g, ok := byKey[sb.key]
			if !ok {
				g = int32(len(bs))
				byKey[sb.key] = g
				bs = append(bs, bucket{key: sb.key, items: sb.items, scores: sb.scores})
				counts = append(counts, 0)
				donor = append(donor, int32(s))
			} else if cfg.Semantics == semantics.LM {
				dst := bs[g].scores
				for j, v := range sb.scores {
					if v < dst[j] {
						dst[j] = v
					}
				}
			}
			l[li] = g
			counts[g] += sh.counts[li]
		}
		lut[s] = l
	}
	// Merge pass 2 (AV only): the order-sensitive sums replay every
	// non-donor member one at a time, in global pref order, through
	// the same fold the serial pass runs (property 2).
	if cfg.Semantics == semantics.AV {
		for s := range shards {
			sh := &shards[s]
			lo := ranges[s][0]
			for d, li := range sh.assign {
				g := lut[s][li]
				if donor[g] != int32(s) {
					foldBucketMember(bs[g].scores, prefs[lo+d], cfg)
				}
			}
		}
	}
	// Member arena fill in global pref order (property 1): translate
	// the shard-local assignments into one flat global array first.
	if cap(scr.assign) < len(prefs) {
		scr.assign = make([]int32, len(prefs))
	}
	assign := scr.assign[:len(prefs)]
	for s := range shards {
		sh := &shards[s]
		lo := ranges[s][0]
		for d, li := range sh.assign {
			assign[lo+d] = lut[s][li]
		}
	}
	return scr.fillMembers(prefs, bs, counts, assign)
}
