package wire

import (
	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/semantics"
)

// Frame kinds of the shard calls (see the package comment).
const (
	kindScoresRequest   = 0x03
	kindScoresResponse  = 0x04
	kindBucketsResponse = 0x05
)

// Probe modes of a scores request.
const (
	modeTopK  = 0 // every item a resident member rated
	modeItems = 1 // the listed items, in order
)

// statsRecLen is one ItemStats record: i32 item, f64 min, u32 count,
// f64 wsum, f64 wraters.
const statsRecLen = 4 + 8 + 4 + 8 + 8

var errProbeMode = gferr.BadConfigf("wire: probe mode byte out of range (want 0 top-k or 1 items)")

// ScoresRequest is a decoded gather call: every probe of one plan,
// over the dataset it names. Dataset aliases the parsed frame; the
// probes' member and item lists do not. A top-k probe has nil Items,
// and K is not on the wire: a shard answers every rated item and the
// router selects.
type ScoresRequest struct {
	Dataset []byte
	Probes  []core.Probe
}

// AppendScoresRequest encodes r as a scores request frame appended to
// dst.
func AppendScoresRequest(dst []byte, r ScoresRequest) []byte {
	dst = append(dst, magic, Version, kindScoresRequest, 0)
	dst = appendU16(dst, uint16(len(r.Dataset)))
	dst = append(dst, r.Dataset...)
	dst = appendU32(dst, uint32(len(r.Probes)))
	for _, p := range r.Probes {
		mode := byte(modeItems)
		if p.Items == nil {
			mode = modeTopK
		}
		dst = append(dst, mode)
		dst = appendU32(dst, uint32(len(p.Members)))
		for _, u := range p.Members {
			dst = appendU32(dst, uint32(u))
		}
		if mode == modeItems {
			dst = appendU32(dst, uint32(len(p.Items)))
			for _, it := range p.Items {
				dst = appendU32(dst, uint32(it))
			}
		}
	}
	return dst
}

// ParseScoresRequest decodes a scores request frame. Every rejection
// wraps gferr.ErrBadConfig.
func ParseScoresRequest(frame []byte) (ScoresRequest, error) {
	var r ScoresRequest
	d, err := shardDecoder(frame, kindScoresRequest)
	if err != nil {
		return r, err
	}
	if r.Dataset, err = d.name(); err != nil {
		return r, err
	}
	n, err := d.count(1 + 4)
	if err != nil {
		return r, err
	}
	// The first pass checks every length against the frame and sizes
	// one member and one item array for all probes; the second fills
	// them.
	start := d.off
	var nm, ni int
	for range n {
		mode, ok := d.u8()
		if !ok {
			return r, errTruncated
		}
		if mode > modeItems {
			return r, errProbeMode
		}
		c, err := d.skipRun(4)
		if err != nil {
			return r, err
		}
		nm += c
		if mode == modeItems {
			if c, err = d.skipRun(4); err != nil {
				return r, err
			}
			ni += c
		}
	}
	if d.off != len(frame) {
		return r, errTrailing
	}
	d.off = start
	members := make([]dataset.UserID, nm)
	items := make([]dataset.ItemID, ni)
	r.Probes = make([]core.Probe, n)
	for p := range r.Probes {
		mode, _ := d.u8()
		c, _ := d.u32()
		pr := &r.Probes[p]
		pr.Members, members = members[:c:c], members[c:]
		for i := range pr.Members {
			v, _ := d.u32()
			pr.Members[i] = dataset.UserID(int32(v))
		}
		if mode == modeItems {
			c, _ = d.u32()
			pr.Items, items = items[:c:c], items[c:]
			for i := range pr.Items {
				v, _ := d.u32()
				pr.Items[i] = dataset.ItemID(int32(v))
			}
		}
	}
	return r, nil
}

// AppendScoresResponse starts a scores response frame of n probe
// answers; each follows through AppendProbeStats and its records
// through AppendItemStats, in request order.
func AppendScoresResponse(dst []byte, n int) []byte {
	dst = append(dst, magic, Version, kindScoresResponse, 0)
	return appendU32(dst, uint32(n))
}

// AppendProbeStats starts one probe's answer: the shard's resident
// count among the probe's members and the number of records that
// follow.
func AppendProbeStats(dst []byte, residents, records int) []byte {
	dst = appendU32(dst, uint32(residents))
	return appendU32(dst, uint32(records))
}

// AppendItemStats appends one record.
func AppendItemStats(dst []byte, st semantics.ItemStats) []byte {
	dst = appendU32(dst, uint32(st.Item))
	dst = appendF64(dst, st.Min)
	dst = appendU32(dst, uint32(st.Count))
	dst = appendF64(dst, st.WSum)
	return appendF64(dst, st.WRaters)
}

// ProbeStats is one probe's answer in a parsed scores response. Its
// records are read in place from the frame.
type ProbeStats struct {
	Residents int
	recs      []byte
}

// Len is the number of records.
func (p ProbeStats) Len() int { return len(p.recs) / statsRecLen }

// Item returns record i's item ID without decoding the rest.
func (p ProbeStats) Item(i int) dataset.ItemID {
	return dataset.ItemID(int32(readU32(p.recs[i*statsRecLen:])))
}

// At decodes record i.
func (p ProbeStats) At(i int) semantics.ItemStats {
	b := p.recs[i*statsRecLen:]
	return semantics.ItemStats{
		Item:    dataset.ItemID(int32(readU32(b))),
		Min:     readF64(b[4:]),
		Count:   int(readU32(b[12:])),
		WSum:    readF64(b[16:]),
		WRaters: readF64(b[24:]),
	}
}

// ParseScoresResponse decodes a scores response frame into its probe
// answers, which alias frame. Every rejection wraps
// gferr.ErrBadConfig.
func ParseScoresResponse(frame []byte) ([]ProbeStats, error) {
	d, err := shardDecoder(frame, kindScoresResponse)
	if err != nil {
		return nil, err
	}
	n, err := d.count(4 + 4)
	if err != nil {
		return nil, err
	}
	out := make([]ProbeStats, n)
	for p := range out {
		residents, ok := d.u32()
		if !ok {
			return nil, errTruncated
		}
		start := d.off + 4
		c, err := d.skipRun(statsRecLen)
		if err != nil {
			return nil, err
		}
		out[p] = ProbeStats{Residents: int(residents), recs: frame[start : start+c*statsRecLen]}
	}
	if d.off != len(frame) {
		return nil, errTrailing
	}
	return out, nil
}

// ShardBuckets is a /shard/buckets answer: the shard's resolved
// dataset name, its resident user count, its anytime bound
// contribution, the clamped deadline it solved under (0 when nothing
// was clamped) and its candidate buckets.
type ShardBuckets struct {
	Dataset            string
	Users              int
	Bound              float64
	EffectiveTimeoutMS int64
	Buckets            []core.ShardBucket
}

// AppendShardBuckets encodes b as a buckets response frame appended to
// dst.
func AppendShardBuckets(dst []byte, b *ShardBuckets) []byte {
	dst = append(dst, magic, Version, kindBucketsResponse, 0)
	dst = appendU16(dst, uint16(len(b.Dataset)))
	dst = append(dst, b.Dataset...)
	dst = appendU32(dst, uint32(b.Users))
	dst = appendF64(dst, b.Bound)
	dst = appendU64(dst, uint64(b.EffectiveTimeoutMS))
	dst = appendU32(dst, uint32(len(b.Buckets)))
	for _, sb := range b.Buckets {
		dst = appendU32(dst, uint32(len(sb.Key)))
		dst = append(dst, sb.Key...)
		dst = appendU32(dst, uint32(len(sb.Items)))
		for _, it := range sb.Items {
			dst = appendU32(dst, uint32(it))
		}
		for _, sc := range sb.Scores {
			dst = appendF64(dst, sc)
		}
		dst = appendU32(dst, uint32(len(sb.Members)))
		for _, u := range sb.Members {
			dst = appendU32(dst, uint32(u))
		}
	}
	return dst
}

// ParseShardBuckets decodes a buckets response frame. Bucket keys
// alias frame; items, scores and members are carved from one array
// each. Every rejection wraps gferr.ErrBadConfig.
func ParseShardBuckets(frame []byte) (*ShardBuckets, error) {
	d, err := shardDecoder(frame, kindBucketsResponse)
	if err != nil {
		return nil, err
	}
	name, err := d.name()
	if err != nil {
		return nil, err
	}
	users, ok := d.u32()
	if !ok {
		return nil, errTruncated
	}
	bound, ok := d.f64()
	if !ok {
		return nil, errTruncated
	}
	eff, ok := d.u64()
	if !ok {
		return nil, errTruncated
	}
	n, err := d.count(4 + 4 + 4)
	if err != nil {
		return nil, err
	}
	// As ParseScoresRequest: check and size first, then fill.
	start := d.off
	var ni, nm int
	for range n {
		if _, err := d.skipRun(1); err != nil {
			return nil, err
		}
		c, err := d.skipRun(4 + 8)
		if err != nil {
			return nil, err
		}
		ni += c
		if c, err = d.skipRun(4); err != nil {
			return nil, err
		}
		nm += c
	}
	if d.off != len(frame) {
		return nil, errTrailing
	}
	d.off = start
	items := make([]dataset.ItemID, ni)
	scores := make([]float64, ni)
	members := make([]dataset.UserID, nm)
	out := &ShardBuckets{Dataset: string(name), Users: int(users), Bound: bound,
		EffectiveTimeoutMS: int64(eff), Buckets: make([]core.ShardBucket, n)}
	for i := range out.Buckets {
		b := &out.Buckets[i]
		c, _ := d.u32()
		b.Key, _ = d.bytes(int(c))
		c, _ = d.u32()
		b.Items, items = items[:c:c], items[c:]
		b.Scores, scores = scores[:c:c], scores[c:]
		for j := range b.Items {
			v, _ := d.u32()
			b.Items[j] = dataset.ItemID(int32(v))
		}
		for j := range b.Scores {
			b.Scores[j], _ = d.f64()
		}
		c, _ = d.u32()
		b.Members, members = members[:c:c], members[c:]
		for j := range b.Members {
			v, _ := d.u32()
			b.Members[j] = dataset.UserID(int32(v))
		}
	}
	return out, nil
}

// shardDecoder checks a shard frame's header, whose flags byte must be
// zero, and returns a cursor past it.
func shardDecoder(frame []byte, kind byte) (*decoder, error) {
	if len(frame) < headerLen {
		return nil, errTruncated
	}
	flags, err := checkHeader(frame, kind)
	if err != nil {
		return nil, err
	}
	if flags != 0 {
		return nil, errFlags
	}
	return &decoder{buf: frame, off: headerLen}, nil
}

// name reads a u16-prefixed dataset name of at most maxNameLen bytes.
func (d *decoder) name() ([]byte, error) {
	if d.off+2 > len(d.buf) {
		return nil, errTruncated
	}
	n := int(readU16(d.buf[d.off:]))
	d.off += 2
	if n > maxNameLen {
		return nil, errNameLen
	}
	b, ok := d.bytes(n)
	if !ok {
		return nil, errTruncated
	}
	return b, nil
}

// count reads a u32 element count whose elements take at least size
// bytes each, rejecting one the rest of the frame cannot hold.
func (d *decoder) count(size int) (int, error) {
	n, ok := d.u32()
	if !ok {
		return 0, errTruncated
	}
	if int64(n)*int64(size) > int64(len(d.buf)-d.off) {
		return 0, errSize
	}
	return int(n), nil
}

// skipRun reads a u32 count of elements of size bytes each and steps
// over them, returning the count.
func (d *decoder) skipRun(size int) (int, error) {
	n, err := d.count(size)
	if err != nil {
		return 0, err
	}
	d.off += n * size
	return n, nil
}
