// Package wire is the compact binary wire format of the serving
// tier: a length-prefixed little-endian encoding of the /form
// request and response that the daemon negotiates via the
// application/x-groupform-binary media type (Content-Type for
// requests, Accept for responses), and of the two calls a router
// makes to each shard per request: the /shard/buckets answer (the
// scatter) and the /shard/scores request and answer (the gather).
//
// The format exists for one reason: the JSON envelope is the last
// allocating stage of the request path. A binary response serializes
// straight from the core.Result carved out of the pooled scratch
// arenas into a caller-supplied byte buffer — AppendFormResponse
// performs no allocation beyond growing that buffer, and
// ParseFormRequest decodes in place, aliasing the dataset name into
// the input frame rather than copying it. Both carry the
// //gfvet:zeroalloc annotation, so the hotpathalloc analyzer guards
// them against fmt calls, interface boxing and escaping closures.
//
// Framing (all integers little-endian):
//
//	header (4 bytes): magic 'G' (0x47), version (0x02), kind, flags
//	kinds: 0x01 form request, 0x02 form response,
//	       0x03 shard scores request, 0x04 shard scores response,
//	       0x05 shard buckets response
//
// The fourth header byte is a flags byte. Bit 0 means "anytime" on a
// request and "degraded" on a response; all other bits are reserved
// and rejected, and a shard frame (kinds 0x03–0x05) must carry none.
// Writers and readers speak version 2 only; a frame of any other
// version is rejected.
//
// Form request (kind 0x01), after the header:
//
//	u8  semantics (0 lm, 1 av)
//	u8  aggregation (0 max, 1 min, 2 sum, 3 wsum-pos, 4 wsum-log)
//	u16 reserved (must be 0)
//	u32 k
//	u32 l
//	f64 missing
//	i32 workers
//	i64 timeout_ms
//	f64 quality_target (0 disables)
//	u16 dataset name length, then that many name bytes
//
// Form response (kind 0x02), after the header:
//
//	degraded block, only when flags bit 0 is set:
//	  f64 bound
//	  f64 gap
//	  u32 completed
//	  u32 total
//	u8  algorithm name length, then that many bytes
//	f64 objective
//	u32 buckets
//	u32 group count, then per group:
//	  u8  merged (0 or 1)
//	  f64 satisfaction
//	  u32 member count, then members as i32 user IDs
//	  u32 item count, then items as i32 item IDs,
//	      then item scores as f64 (item count of them)
//
// The response deliberately omits the dataset name: the client named
// it in the request.
//
// Shard scores request (kind 0x03), every probe of one finalization
// plan (core.Probe), after the header:
//
//	u16 dataset name length, then that many name bytes
//	u32 probe count, then per probe:
//	  u8  mode: 0 top-k (every item a resident member rated),
//	      1 listed items
//	  u32 member count, then members as i32 user IDs
//	  mode 1 only: u32 item count, then items as i32 item IDs
//
// Shard scores response (kind 0x04), one answer per probe in request
// order, after the header:
//
//	u32 probe count, then per probe:
//	  u32 residents (how many of the probe's members the shard holds)
//	  u32 record count, then semantics.ItemStats records of 32 bytes:
//	    i32 item, f64 min, u32 count, f64 wsum, f64 wraters
//
// A top-k answer lists its records ascending by item ID; a listed-items
// answer has one record per listed item, in order, with count 0 and
// min 0 for an item no resident rated.
//
// Shard buckets response (kind 0x05), after the header:
//
//	u16 dataset name length, then that many name bytes (the name the
//	    shard resolved)
//	u32 resident users
//	f64 anytime bound contribution
//	i64 effective_timeout_ms (0 when nothing was clamped)
//	u32 bucket count, then per bucket:
//	  u32 key length, then that many key bytes
//	  u32 item count, then items as i32 item IDs,
//	      then item scores as f64 (item count of them)
//	  u32 member count, then members as i32 user IDs
//
// Trailing bytes after a frame are a framing error; every
// malformed-frame error wraps gferr.ErrBadConfig so the serving tier
// classifies it as a 400.
package wire

import (
	"math"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/semantics"
)

// ContentType is the negotiated media type of the binary format, for
// both request Content-Type and response Accept.
const ContentType = "application/x-groupform-binary"

// Version is the format version of every frame header, written and
// accepted.
const Version = 2

// Frame kinds.
const (
	kindFormRequest  = 0x01
	kindFormResponse = 0x02
)

const magic = 'G'

// Header flag bits. Bit 0 is the only assigned bit in either kind.
const (
	// FlagAnytime marks a request that opts into graceful
	// degradation: on deadline the server answers with the best
	// feasible incumbent and a quality certificate instead of a 499.
	FlagAnytime = 0x01
	// FlagDegraded marks a response carrying a degraded block — a
	// best-so-far result with its quality certificate.
	FlagDegraded = 0x01

	knownFlags = 0x01
)

// headerLen is the frame header size; reqFixedLen the fixed-size part
// of a request frame (header + scalars + name length prefix).
const (
	headerLen   = 4
	reqFixedLen = headerLen + 1 + 1 + 2 + 4 + 4 + 8 + 4 + 8 + 8 + 2
)

// maxNameLen bounds the dataset name, mirroring the registry's
// 128-character dataset name limit.
const maxNameLen = 128

// Static framing errors: minted once at package level so the parse
// hot path returns them without formatting. All wrap ErrBadConfig —
// the serving tier maps them to 400 bad_config like any other
// malformed request.
var (
	errTruncated   = gferr.BadConfigf("wire: frame truncated")
	errMagic       = gferr.BadConfigf("wire: bad magic byte (want 'G')")
	errVersion     = gferr.BadConfigf("wire: unsupported format version (want 2)")
	errKind        = gferr.BadConfigf("wire: unexpected frame kind")
	errReserved    = gferr.BadConfigf("wire: reserved request bytes must be zero")
	errFlags       = gferr.BadConfigf("wire: unknown header flag bits set")
	errSemantics   = gferr.BadConfigf("wire: semantics byte out of range (want 0 lm or 1 av)")
	errAggregation = gferr.BadConfigf("wire: aggregation byte out of range (want 0..4)")
	errNameLen     = gferr.BadConfigf("wire: dataset name longer than 128 bytes")
	errTrailing    = gferr.BadConfigf("wire: trailing bytes after frame")
	errMerged      = gferr.BadConfigf("wire: merged flag must be 0 or 1")
	errSize        = gferr.BadConfigf("wire: length field exceeds frame size")
)

// FormRequest is a decoded binary form request. Dataset aliases the
// parsed frame — it stays valid only as long as the frame's buffer.
type FormRequest struct {
	Dataset     []byte
	K, L        int
	Semantics   semantics.Semantics
	Aggregation semantics.Aggregation
	Missing     float64
	Workers     int
	TimeoutMS   int64
	// Anytime opts into graceful degradation (header flag bit 0);
	// QualityTarget, in (0, 1], stops the solver early once its bound
	// proves the incumbent is within that fraction of optimal. Zero
	// disables.
	Anytime       bool
	QualityTarget float64
}

// appendU16/U32/U64 are the little-endian append primitives; byte-wise
// appends compile to simple stores and never box.
//
//gfvet:zeroalloc
func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

//gfvet:zeroalloc
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

//gfvet:zeroalloc
func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

//gfvet:zeroalloc
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func readU16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func readF64(b []byte) float64 {
	return math.Float64frombits(readU64(b))
}

// AppendFormRequest encodes r as a version-2 request frame appended
// to dst.
func AppendFormRequest(dst []byte, r FormRequest) []byte {
	var flags byte
	if r.Anytime {
		flags |= FlagAnytime
	}
	dst = append(dst, magic, Version, kindFormRequest, flags)
	dst = append(dst, byte(r.Semantics), byte(r.Aggregation), 0, 0)
	dst = appendU32(dst, uint32(r.K))
	dst = appendU32(dst, uint32(r.L))
	dst = appendF64(dst, r.Missing)
	dst = appendU32(dst, uint32(int32(r.Workers)))
	dst = appendU64(dst, uint64(r.TimeoutMS))
	dst = appendF64(dst, r.QualityTarget)
	dst = appendU16(dst, uint16(len(r.Dataset)))
	return append(dst, r.Dataset...)
}

// ParseFormRequest decodes a request frame. The returned request's
// Dataset aliases frame. Every rejection wraps gferr.ErrBadConfig.
//
//gfvet:zeroalloc
func ParseFormRequest(frame []byte) (FormRequest, error) {
	var r FormRequest
	if len(frame) < headerLen {
		return r, errTruncated
	}
	flags, err := checkHeader(frame, kindFormRequest)
	if err != nil {
		return r, err
	}
	if len(frame) < reqFixedLen {
		return r, errTruncated
	}
	if frame[6] != 0 || frame[7] != 0 {
		return r, errReserved
	}
	sem := frame[4]
	if sem > uint8(semantics.AV) {
		return r, errSemantics
	}
	agg := frame[5]
	if agg > uint8(semantics.WeightedSumLog) {
		return r, errAggregation
	}
	r.Semantics = semantics.Semantics(sem)
	r.Aggregation = semantics.Aggregation(agg)
	r.K = int(readU32(frame[8:]))
	r.L = int(readU32(frame[12:]))
	r.Missing = readF64(frame[16:])
	r.Workers = int(int32(readU32(frame[24:])))
	r.TimeoutMS = int64(readU64(frame[28:]))
	r.QualityTarget = readF64(frame[36:])
	r.Anytime = flags&FlagAnytime != 0
	n := int(readU16(frame[reqFixedLen-2:]))
	if n > maxNameLen {
		return r, errNameLen
	}
	if len(frame) < reqFixedLen+n {
		return r, errTruncated
	}
	if len(frame) > reqFixedLen+n {
		return r, errTrailing
	}
	r.Dataset = frame[reqFixedLen : reqFixedLen+n]
	return r, nil
}

// AppendFormResponse encodes res as a response frame appended to dst,
// reading the group slices in place — with a warm dst this is the
// zero-copy, zero-alloc half of the wire path.
//
//gfvet:zeroalloc
func AppendFormResponse(dst []byte, res *core.Result) []byte {
	var flags byte
	if res.Partial != nil {
		flags |= FlagDegraded
	}
	dst = append(dst, magic, Version, kindFormResponse, flags)
	if res.Partial != nil {
		dst = appendF64(dst, res.Partial.Bound)
		dst = appendF64(dst, res.Partial.Gap)
		dst = appendU32(dst, uint32(res.Partial.Completed))
		dst = appendU32(dst, uint32(res.Partial.Total))
	}
	dst = append(dst, byte(len(res.Algorithm)))
	dst = append(dst, res.Algorithm...)
	dst = appendF64(dst, res.Objective)
	dst = appendU32(dst, uint32(res.Buckets))
	dst = appendU32(dst, uint32(len(res.Groups)))
	for gi := range res.Groups {
		g := &res.Groups[gi]
		var merged byte
		if g.Merged {
			merged = 1
		}
		dst = append(dst, merged)
		dst = appendF64(dst, g.Satisfaction)
		dst = appendU32(dst, uint32(len(g.Members)))
		for _, u := range g.Members {
			dst = appendU32(dst, uint32(u))
		}
		dst = appendU32(dst, uint32(len(g.Items)))
		for _, it := range g.Items {
			dst = appendU32(dst, uint32(it))
		}
		for _, sc := range g.ItemScores {
			dst = appendF64(dst, sc)
		}
	}
	return dst
}

// FormResult is a decoded binary form response, mirroring the JSON
// FormResponse minus the dataset name (which the client supplied).
type FormResult struct {
	Algorithm string
	Objective float64
	Buckets   int
	Groups    []FormGroup
	// Degraded reports whether the frame carried a quality
	// certificate (header flag bit 0): the result is a best-so-far
	// incumbent whose objective is provably within Gap of the
	// admissible upper bound Bound, with Completed of Total progress
	// units finished.
	Degraded  bool
	Bound     float64
	Gap       float64
	Completed int
	Total     int
}

// FormGroup is one decoded group.
type FormGroup struct {
	Members      []dataset.UserID
	Items        []dataset.ItemID
	ItemScores   []float64
	Satisfaction float64
	Merged       bool
}

// maxDecodeElems bounds a single length field during decoding, so a
// hostile frame cannot make the decoder allocate gigabytes from a
// few header bytes. A frame that genuinely carries this many
// elements is larger than the serving tier's body caps anyway.
const maxDecodeElems = 1 << 28

// ParseFormResponse decodes a response frame (the client half of the
// wire; tests use it to prove byte parity with the JSON envelope).
// Every rejection wraps gferr.ErrBadConfig.
func ParseFormResponse(frame []byte) (*FormResult, error) {
	if len(frame) < headerLen+1 {
		return nil, errTruncated
	}
	flags, err := checkHeader(frame, kindFormResponse)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: frame, off: headerLen}
	var partial struct {
		bound, gap       float64
		completed, total uint32
	}
	degraded := flags&FlagDegraded != 0
	if degraded {
		var ok bool
		if partial.bound, ok = d.f64(); !ok {
			return nil, errTruncated
		}
		if partial.gap, ok = d.f64(); !ok {
			return nil, errTruncated
		}
		if partial.completed, ok = d.u32(); !ok {
			return nil, errTruncated
		}
		if partial.total, ok = d.u32(); !ok {
			return nil, errTruncated
		}
	}
	alen, ok := d.u8()
	if !ok {
		return nil, errTruncated
	}
	name, ok := d.bytes(int(alen))
	if !ok {
		return nil, errTruncated
	}
	res := &FormResult{Algorithm: string(name)}
	if degraded {
		res.Degraded = true
		res.Bound = partial.bound
		res.Gap = partial.gap
		res.Completed = int(partial.completed)
		res.Total = int(partial.total)
	}
	obj, ok := d.f64()
	if !ok {
		return nil, errTruncated
	}
	res.Objective = obj
	buckets, ok := d.u32()
	if !ok {
		return nil, errTruncated
	}
	res.Buckets = int(buckets)
	ngroups, ok := d.u32()
	if !ok {
		return nil, errTruncated
	}
	if ngroups > maxDecodeElems || int(ngroups) > len(frame) {
		return nil, errSize
	}
	res.Groups = make([]FormGroup, ngroups)
	for gi := range res.Groups {
		g := &res.Groups[gi]
		mergedByte, ok := d.u8()
		if !ok {
			return nil, errTruncated
		}
		if mergedByte > 1 {
			return nil, errMerged
		}
		g.Merged = mergedByte == 1
		if g.Satisfaction, ok = d.f64(); !ok {
			return nil, errTruncated
		}
		nmembers, ok := d.u32()
		if !ok {
			return nil, errTruncated
		}
		if int64(nmembers)*4 > int64(len(frame)) {
			return nil, errSize
		}
		g.Members = make([]dataset.UserID, nmembers)
		for i := range g.Members {
			v, ok := d.u32()
			if !ok {
				return nil, errTruncated
			}
			g.Members[i] = dataset.UserID(int32(v))
		}
		nitems, ok := d.u32()
		if !ok {
			return nil, errTruncated
		}
		if int64(nitems)*12 > int64(len(frame)) {
			return nil, errSize
		}
		g.Items = make([]dataset.ItemID, nitems)
		for i := range g.Items {
			v, ok := d.u32()
			if !ok {
				return nil, errTruncated
			}
			g.Items[i] = dataset.ItemID(int32(v))
		}
		g.ItemScores = make([]float64, nitems)
		for i := range g.ItemScores {
			if g.ItemScores[i], ok = d.f64(); !ok {
				return nil, errTruncated
			}
		}
	}
	if d.off != len(frame) {
		return nil, errTrailing
	}
	return res, nil
}

// checkHeader validates the 4-byte frame header against a kind and
// returns the frame's flags byte, in which only known bits may be
// set.
//
//gfvet:zeroalloc
func checkHeader(frame []byte, kind byte) (flags byte, err error) {
	if frame[0] != magic {
		return 0, errMagic
	}
	if frame[1] != Version {
		return 0, errVersion
	}
	if frame[2] != kind {
		return 0, errKind
	}
	flags = frame[3]
	if flags&^byte(knownFlags) != 0 {
		return 0, errFlags
	}
	return flags, nil
}

// decoder is a bounds-checked cursor over a frame.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) u8() (byte, bool) {
	if d.off+1 > len(d.buf) {
		return 0, false
	}
	v := d.buf[d.off]
	d.off++
	return v, true
}

func (d *decoder) u32() (uint32, bool) {
	if d.off+4 > len(d.buf) {
		return 0, false
	}
	v := readU32(d.buf[d.off:])
	d.off += 4
	return v, true
}

func (d *decoder) u64() (uint64, bool) {
	if d.off+8 > len(d.buf) {
		return 0, false
	}
	v := readU64(d.buf[d.off:])
	d.off += 8
	return v, true
}

func (d *decoder) f64() (float64, bool) {
	if d.off+8 > len(d.buf) {
		return 0, false
	}
	v := readF64(d.buf[d.off:])
	d.off += 8
	return v, true
}

func (d *decoder) bytes(n int) ([]byte, bool) {
	if d.off+n > len(d.buf) {
		return nil, false
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v, true
}
