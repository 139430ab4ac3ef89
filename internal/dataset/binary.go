package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"groupform/internal/gferr"
)

// Binary serialization: a compact little-endian format for large
// synthetic workloads (CSV of a 200k-user scalability dataset is
// ~150 MB and slow to parse; this format is a third the size and an
// order of magnitude faster to load).
//
// Version 2 serializes the CSR storage (see the package comment)
// directly, so loading is a handful of bulk array reads with zero
// per-entry allocation — the arrays on disk are the arrays in memory:
//
//	magic "GFDS" | version u16 = 2 | scale min, max f64
//	user count n u32 | item count m u32 | rating count r u64
//	users  [n]u32   (ascending)
//	items  [m]u32   (ascending)
//	rowPtr [n+1]u32 (non-decreasing, rowPtr[0] = 0, rowPtr[n] = r)
//	colIdx [r]u32   (item indices, ascending within each row)
//	vals   [r]f64
//
// Malformed input — a truncated or corrupt header, out-of-order
// tables, inconsistent counts, out-of-scale values — is classified
// under gferr.ErrBadConfig: the file handed to the loader is not a
// usable configuration of a dataset.

var binaryMagic = [4]byte{'G', 'F', 'D', 'S'}

const binaryVersion uint16 = 2

// badFilef classifies a malformed binary input under ErrBadConfig.
func badFilef(format string, args ...any) error {
	return gferr.BadConfigf("dataset: binary input: %s", fmt.Sprintf(format, args...))
}

// bulkCoder carries the reusable chunk buffer for the bulk array
// encode/decode helpers: arrays stream through a fixed 32 KiB scratch
// rather than materializing a second full-size byte image.
type bulkCoder struct {
	buf [32 * 1024]byte
}

func (c *bulkCoder) writeU32s(w io.Writer, get func(i int) uint32, n int) error {
	for off := 0; off < n; {
		chunk := (len(c.buf) / 4)
		if rem := n - off; rem < chunk {
			chunk = rem
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(c.buf[i*4:], get(off+i))
		}
		if _, err := w.Write(c.buf[:chunk*4]); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

func (c *bulkCoder) writeF64s(w io.Writer, vs []float64) error {
	for off := 0; off < len(vs); {
		chunk := (len(c.buf) / 8)
		if rem := len(vs) - off; rem < chunk {
			chunk = rem
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(c.buf[i*8:], math.Float64bits(vs[off+i]))
		}
		if _, err := w.Write(c.buf[:chunk*8]); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// maxPrealloc caps how many elements any array reserves before its
// data has actually arrived. Header counts are attacker-controlled
// until the tables back them up: a 50-byte file claiming 2^32 users
// must fail with ErrBadConfig on the truncated read, not request
// gigabytes up front. Honest files larger than the cap grow by
// append (O(log) allocations total), so the bulk-load behavior is
// unchanged for real workloads.
const maxPrealloc = 1 << 20

// preallocCap bounds an initial slice capacity by maxPrealloc.
func preallocCap(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// readU32s streams n little-endian u32s through the chunk buffer,
// handing each to app (which appends into a capacity-capped slice).
func (c *bulkCoder) readU32s(r io.Reader, n int, what string, app func(v uint32)) error {
	for off := 0; off < n; {
		chunk := (len(c.buf) / 4)
		if rem := n - off; rem < chunk {
			chunk = rem
		}
		if _, err := io.ReadFull(r, c.buf[:chunk*4]); err != nil {
			return badFilef("%s truncated at element %d: %v", what, off, err)
		}
		for i := 0; i < chunk; i++ {
			app(binary.LittleEndian.Uint32(c.buf[i*4:]))
		}
		off += chunk
	}
	return nil
}

func (c *bulkCoder) readF64s(r io.Reader, n int, what string, app func(v float64)) error {
	for off := 0; off < n; {
		chunk := (len(c.buf) / 8)
		if rem := n - off; rem < chunk {
			chunk = rem
		}
		if _, err := io.ReadFull(r, c.buf[:chunk*8]); err != nil {
			return badFilef("%s truncated at element %d: %v", what, off, err)
		}
		for i := 0; i < chunk; i++ {
			app(math.Float64frombits(binary.LittleEndian.Uint64(c.buf[i*8:])))
		}
		off += chunk
	}
	return nil
}

// WriteBinary serializes the dataset in the current (version 2) CSR
// format. A dataset carrying a delta overlay is compacted first —
// the format IS the frozen arrays.
func WriteBinary(w io.Writer, ds *Dataset) error {
	ds = ds.Compact()
	bw := bufio.NewWriter(w)
	var c bulkCoder
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var hdr [2 + 8 + 8 + 4 + 4 + 8]byte
	binary.LittleEndian.PutUint16(hdr[0:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[2:], math.Float64bits(ds.scale.Min))
	binary.LittleEndian.PutUint64(hdr[10:], math.Float64bits(ds.scale.Max))
	binary.LittleEndian.PutUint32(hdr[18:], uint32(len(ds.users)))
	binary.LittleEndian.PutUint32(hdr[22:], uint32(len(ds.items)))
	binary.LittleEndian.PutUint64(hdr[26:], uint64(len(ds.vals)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := c.writeU32s(bw, func(i int) uint32 { return uint32(ds.users[i]) }, len(ds.users)); err != nil {
		return err
	}
	if err := c.writeU32s(bw, func(i int) uint32 { return uint32(ds.items[i]) }, len(ds.items)); err != nil {
		return err
	}
	if err := c.writeU32s(bw, func(i int) uint32 { return uint32(ds.rowPtr[i]) }, len(ds.rowPtr)); err != nil {
		return err
	}
	if err := c.writeU32s(bw, func(i int) uint32 { return uint32(ds.colIdx[i]) }, len(ds.colIdx)); err != nil {
		return err
	}
	if err := c.writeF64s(bw, ds.vals); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a dataset written by WriteBinary, loading
// with bulk array reads straight into the CSR storage. Every
// structural invariant and rating value is revalidated; malformed
// input, including any version other than 2, fails with an error
// wrapping gferr.ErrBadConfig.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, badFilef("header: %v", err)
	}
	if magic != binaryMagic {
		return nil, badFilef("bad magic %q", magic[:])
	}
	var vbuf [2]byte
	if _, err := io.ReadFull(br, vbuf[:]); err != nil {
		return nil, badFilef("version: %v", err)
	}
	if version := binary.LittleEndian.Uint16(vbuf[:]); version != binaryVersion {
		return nil, badFilef("unsupported version %d", version)
	}
	return readBinaryV2(br)
}

func readScale(br *bufio.Reader) (Scale, error) {
	var buf [16]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return Scale{}, badFilef("scale: %v", err)
	}
	scale := Scale{
		Min: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
		Max: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
	}
	if !(scale.Min < scale.Max) || math.IsNaN(scale.Min) || math.IsNaN(scale.Max) {
		return Scale{}, badFilef("invalid scale [%v,%v]", scale.Min, scale.Max)
	}
	return scale, nil
}

// readBinaryV2 loads the CSR arrays in bulk and validates the
// structural invariants newCSR assumes.
func readBinaryV2(br *bufio.Reader) (*Dataset, error) {
	scale, err := readScale(br)
	if err != nil {
		return nil, err
	}
	var cnt [16]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, badFilef("counts: %v", err)
	}
	n64 := uint64(binary.LittleEndian.Uint32(cnt[0:]))
	m64 := uint64(binary.LittleEndian.Uint32(cnt[4:]))
	nr64 := binary.LittleEndian.Uint64(cnt[8:])
	if n64 > math.MaxInt32 || m64 > math.MaxInt32 {
		return nil, badFilef("user/item counts %d/%d exceed the int32 index space", n64, m64)
	}
	if nr64 > math.MaxInt32 {
		return nil, badFilef("rating count %d exceeds the int32 row-pointer space", nr64)
	}
	n, m, nr := int(n64), int(m64), int(nr64)
	if m == 0 && nr > 0 {
		return nil, badFilef("%d ratings over zero items", nr)
	}
	var c bulkCoder
	users := make([]UserID, 0, preallocCap(n))
	if err := c.readU32s(br, n, "user table", func(v uint32) { users = append(users, UserID(v)) }); err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if users[i] <= users[i-1] {
			return nil, badFilef("user table out of order at index %d", i)
		}
	}
	items := make([]ItemID, 0, preallocCap(m))
	if err := c.readU32s(br, m, "item table", func(v uint32) { items = append(items, ItemID(v)) }); err != nil {
		return nil, err
	}
	for i := 1; i < m; i++ {
		if items[i] <= items[i-1] {
			return nil, badFilef("item table out of order at index %d", i)
		}
	}
	rowPtr := make([]int32, 0, preallocCap(n+1))
	if err := c.readU32s(br, n+1, "row pointers", func(v uint32) { rowPtr = append(rowPtr, int32(v)) }); err != nil {
		return nil, err
	}
	if rowPtr[0] != 0 || int(rowPtr[n]) != nr {
		return nil, badFilef("row pointers span [%d,%d], want [0,%d]", rowPtr[0], rowPtr[n], nr)
	}
	for i := 1; i <= n; i++ {
		if rowPtr[i] < rowPtr[i-1] {
			return nil, badFilef("row pointers decrease at index %d", i)
		}
	}
	colIdx := make([]ItemIdx, 0, preallocCap(nr))
	if err := c.readU32s(br, nr, "column indices", func(v uint32) { colIdx = append(colIdx, ItemIdx(v)) }); err != nil {
		return nil, err
	}
	for r := 0; r < n; r++ {
		prev := ItemIdx(-1)
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			j := colIdx[p]
			if j <= prev || int(j) >= m {
				return nil, badFilef("user %d column indices invalid at offset %d", users[r], p)
			}
			prev = j
		}
	}
	vals := make([]float64, 0, preallocCap(nr))
	if err := c.readF64s(br, nr, "values", func(v float64) { vals = append(vals, v) }); err != nil {
		return nil, err
	}
	for p, v := range vals {
		if !scale.Valid(v) {
			return nil, badFilef("rating %v at offset %d outside scale [%v,%v]", v, p, scale.Min, scale.Max)
		}
	}
	return newCSR(scale, users, items, rowPtr, colIdx, vals, 0), nil
}
