package core

import (
	"bytes"
	"context"
	"hash/maphash"
	"math/bits"
	"slices"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/rank"
	"groupform/internal/semantics"
)

// PartitionKinds is the number of distinct bucketize passes one set of
// preference lists admits; see Config.PartitionKind.
const PartitionKinds = 4

// PartitionKind names the bucketize pass cfg runs, in [0,
// PartitionKinds): LM-MIN, LM-MAX, LM-SUM (which the weighted sums
// share: their key holds every score and LM folds by min whatever the
// aggregation), and AV, which every AV aggregation shares because AV
// keys on the item sequence alone and folds by sum. Configurations of
// one kind over the same preference lists form the same buckets with
// the same scores, members and order; only the plan, which ranks
// buckets by the aggregated satisfaction, tells them apart. ok is
// false under AV with UserWeights, whose fold depends on the weights.
func (c Config) PartitionKind() (kind int, ok bool) {
	switch {
	case c.Semantics == semantics.AV:
		return 3, len(c.UserWeights) == 0
	case c.Aggregation == semantics.Min:
		return 0, true
	case c.Aggregation == semantics.Max:
		return 1, true
	default:
		return 2, true
	}
}

// Partition is the output of step 1 of the framework over one
// population: its buckets in first-seen order, each with its key,
// item list, folded scores and members (ascending), in flat arrays,
// plus each user's bucket. A run's own pass fills the partition inside
// its Scratch; NewPartition copies one out for an Engine to cache, and
// from then on nothing writes it: plan reads it, Results may alias its
// lists and members, and any number of runs may share it.
type Partition struct {
	keys     []byte  // bucket b's key: keys[keyOffs[b]:keyOffs[b+1]]
	keyOffs  []int32 // len buckets+1
	items    []dataset.ItemID
	scores   []float64 // aligned with items: bucket b's list and folded scores
	listOffs []int32   // bucket b's list: items[listOffs[b]:listOffs[b+1]]
	members  []dataset.UserID
	offs     []int32 // bucket b's members: members[offs[b]:offs[b+1]]
	// assign[r] is the bucket of the r-th user in dataset order; nil
	// for buckets that arrived without one (FinalizeMerged).
	assign []int32

	// What NewPartition built it for; see fits.
	k, kind int
	missing float64
}

// buckets returns the number of buckets.
func (p *Partition) buckets() int { return len(p.offs) - 1 }

func (p *Partition) key(b int) []byte {
	return p.keys[p.keyOffs[b]:p.keyOffs[b+1]:p.keyOffs[b+1]]
}

func (p *Partition) list(b int) ([]dataset.ItemID, []float64) {
	lo, hi := p.listOffs[b], p.listOffs[b+1]
	return p.items[lo:hi:hi], p.scores[lo:hi:hi]
}

func (p *Partition) membersOf(b int) []dataset.UserID {
	return p.members[p.offs[b]:p.offs[b+1]:p.offs[b+1]]
}

// fits reports whether p is cfg's pass over ds: the same kind, K and
// Missing, over as many users.
func (p *Partition) fits(ds *dataset.Dataset, cfg Config) bool {
	kind, ok := cfg.PartitionKind()
	return ok && kind == p.kind && cfg.K == p.k && cfg.Missing == p.missing && len(p.assign) == ds.NumUsers()
}

// clone copies p into arrays sized to its contents that share nothing
// with the scratch that filled it.
func (p *Partition) clone() *Partition {
	return &Partition{
		keys:     slices.Clone(p.keys),
		keyOffs:  slices.Clone(p.keyOffs),
		items:    slices.Clone(p.items),
		scores:   slices.Clone(p.scores),
		listOffs: slices.Clone(p.listOffs),
		members:  slices.Clone(p.members),
		offs:     slices.Clone(p.offs),
		assign:   slices.Clone(p.assign),
	}
}

// NewPartition runs step 1 of the framework for cfg over ds on a
// pooled scratch and returns a read-only copy of its buckets, for an
// Engine to hand to every later FormPartitionInto, FormWithPartition
// and BucketizeShardWithPartition of cfg's kind over the same lists.
// prefs follows the FormWithPrefs contract. Weighted AV has no
// partition (ErrBadConfig).
func NewPartition(ctx context.Context, ds *dataset.Dataset, cfg Config, prefs []rank.PrefList) (*Partition, error) {
	kind, ok := cfg.PartitionKind()
	if !ok {
		return nil, gferr.BadConfigf("core: weighted AV has no bucket partition")
	}
	prefs, err := prepare(ctx, ds, cfg, prefs)
	if err != nil {
		return nil, err
	}
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	out := s.bucketize(prefs, cfg).clone()
	if err := gferr.Ctx(ctx); err != nil {
		return nil, err
	}
	out.k, out.kind, out.missing = cfg.K, kind, cfg.Missing
	return out, nil
}

// listWidth is the length of a bucket's stored list: LM-MAX buckets
// agree only on the top item and its score, every other kind on the
// whole K-item sequence.
func (c Config) listWidth() int {
	if c.Semantics == semantics.LM && c.Aggregation == semantics.Max {
		return 1
	}
	return c.K
}

// usePartition returns the partition a run of cfg over prefs plans
// from: part when supplied and cfg's own, else the scratch's own pass.
//
//gfvet:zeroalloc
func (s *Scratch) usePartition(ds *dataset.Dataset, cfg Config, prefs []rank.PrefList, part *Partition) (*Partition, error) {
	if part == nil {
		return s.bucketize(prefs, cfg), nil
	}
	if !part.fits(ds, cfg) {
		return nil, gferr.BadConfigf("core: partition was built for another configuration or dataset")
	}
	return part, nil
}

// keySeed hashes bucket keys into the per-run table. It is random per
// process, as Go's maps are, so ratings a client uploads cannot be
// chosen to make their keys collide in the table.
var keySeed = maphash.MakeSeed()

// tableSlot is one slot of bucketize's open-addressing table: the high
// half of the key's hash and the bucket index plus one (0 marks an
// empty slot).
type tableSlot struct {
	tag    uint32
	bucket int32
}

// minBucketCap is the bucket capacity a cold scratch's first pass
// reserves; later passes double it as they need.
const minBucketCap = 256

// tableSize is the power of two at least twice n, so a pass's table
// is never more than half full.
func tableSize(n int) int {
	return 1 << bits.Len(uint(2*n-1))
}

// bucketize hashes every user's preference list into intermediate
// groups under the configured key (step 1 of the framework), in
// first-seen order, and returns the scratch's partition. Group item
// scores are folded in as members join: min for LM, sum for AV, into
// the bucket's own copy of its score positions, so the fold never
// mutates the caller's lists.
//
// Allocation discipline: keys resolve through a per-run open-addressing
// table sized to twice the users and cleared at the start of the pass,
// hashed with hash/maphash; the table stores a hash tag and a bucket
// index, and a new bucket copies its key bytes once into the
// partition's key array, where later probes compare them. Items,
// scores and per-bucket offsets append to the partition's flat arrays,
// each user's bucket lands in a flat assignment, and the members are
// filled by a counting pass, ascending by construction. A warm scratch
// runs this whole step without allocating, and keeps nothing from one
// pass to the next but capacity.
//
//gfvet:zeroalloc
func (s *Scratch) bucketize(prefs []rank.PrefList, cfg Config) *Partition {
	n := len(prefs)
	size := tableSize(n)
	if cap(s.table) < size {
		s.table = make([]tableSlot, size)
	}
	table := s.table[:size]
	clear(table)
	mask := uint64(size - 1)
	p := &s.part
	if cap(p.assign) < n {
		p.assign = make([]int32, n)
	}
	assign := p.assign[:n]
	keys, keyOffs := p.keys[:0], append(p.keyOffs[:0], 0)
	items, scores, listOffs := p.items[:0], p.scores[:0], append(p.listOffs[:0], 0)
	counts := s.counts[:0]
	keyBuf := s.keyBuf
	width := cfg.listWidth()
	for i, pl := range prefs {
		keyBuf = appendKey(keyBuf[:0], pl, cfg)
		h := maphash.Bytes(keySeed, keyBuf)
		tag := uint32(h >> 32)
		pos := h & mask
		for {
			e := &table[pos]
			if e.bucket == 0 {
				b := int32(len(counts))
				if len(counts) == cap(counts) || len(keys)+len(keyBuf) > cap(keys) ||
					len(items)+width > cap(items) || len(scores)+width > cap(scores) {
					// Grow every per-bucket array at once, doubling the
					// bucket capacity (or matching it, when a wider key
					// or list than an earlier pass's overflows first), so
					// a cold pass allocates a few times per array
					// whatever its bucket count.
					nb := max(minBucketCap, cap(counts), 2*len(counts))
					keys = slices.Grow(keys, nb*len(keyBuf)-len(keys))
					keyOffs = slices.Grow(keyOffs, nb+1-len(keyOffs))
					items = slices.Grow(items, nb*width-len(items))
					scores = slices.Grow(scores, nb*width-len(scores))
					listOffs = slices.Grow(listOffs, nb+1-len(listOffs))
					counts = slices.Grow(counts, nb-len(counts))
				}
				*e = tableSlot{tag: tag, bucket: b + 1}
				keys = append(keys, keyBuf...)
				keyOffs = append(keyOffs, int32(len(keys)))
				items, scores = seedBucket(items, scores, pl, cfg)
				listOffs = append(listOffs, int32(len(items)))
				counts = append(counts, 1)
				assign[i] = b
				break
			}
			if b := e.bucket - 1; e.tag == tag && bytes.Equal(keys[keyOffs[b]:keyOffs[b+1]], keyBuf) {
				foldBucketMember(scores[listOffs[b]:listOffs[b+1]], pl, cfg)
				counts[b]++
				assign[i] = b
				break
			}
			pos = (pos + 1) & mask
		}
	}
	s.keyBuf, s.counts = keyBuf, counts
	p.keys, p.keyOffs = keys, keyOffs
	p.items, p.scores, p.listOffs = items, scores, listOffs
	p.assign = assign
	s.fillMembers(prefs)
	return p
}

// fillMembers lays the partition's members out from its assignment:
// offsets come from the per-bucket counts, which then serve as fill
// cursors, and walking the assignment in preference-list order lands
// each bucket's members in the order bucketize's fold met them,
// ascending by user.
//
//gfvet:zeroalloc
func (s *Scratch) fillMembers(prefs []rank.PrefList) {
	p := &s.part
	nb := len(s.counts)
	if cap(p.members) < len(prefs) {
		p.members = make([]dataset.UserID, len(prefs))
	}
	members := p.members[:len(prefs)]
	if cap(p.offs) < nb+1 {
		p.offs = make([]int32, nb+1)
	}
	offs := p.offs[:nb+1]
	offs[0] = 0
	for b, c := range s.counts {
		offs[b+1] = offs[b] + c
	}
	cur := s.counts
	copy(cur, offs[:nb])
	for i, b := range p.assign {
		members[cur[b]] = prefs[i].User
		cur[b]++
	}
	p.members, p.offs = members, offs
}

// seedBucket appends the item list and initial score positions of a
// bucket created by preference list p. LM-MAX buckets agree only on
// the (top item, score) pair — members' list tails differ, so only
// position 0 is stored and the final list is completed later. The
// scores are a copy (weighted under AV), because the fold must not
// mutate the caller's lists, which an Engine shares between concurrent
// runs.
func seedBucket(items []dataset.ItemID, scores []float64, p rank.PrefList, cfg Config) ([]dataset.ItemID, []float64) {
	its, scs := p.Items[:cfg.listWidth()], p.Scores[:cfg.listWidth()]
	items = append(items, its...)
	if cfg.Semantics != semantics.AV {
		return items, append(scores, scs...)
	}
	w := cfg.weight(p.User)
	for _, v := range scs {
		scores = append(scores, w*v)
	}
	return items, scores
}
