package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"groupform/internal/gferr"
)

// randomDataset builds a moderately sized sparse dataset with
// non-contiguous IDs, the shape that exercises the index remapping.
func randomDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(DefaultScale)
	for i := 0; i < 5000; i++ {
		b.MustAdd(UserID(rng.Intn(400)*3+7), ItemID(rng.Intn(200)*5+11), float64(1+rng.Intn(9))/2+0.5)
	}
	return b.Build()
}

// requireSameDataset compares every observable of two datasets,
// including the index-space views.
func requireSameDataset(t *testing.T, got, want *Dataset) {
	t.Helper()
	if got.Scale() != want.Scale() {
		t.Fatalf("scale %v != %v", got.Scale(), want.Scale())
	}
	if !reflect.DeepEqual(got.Users(), want.Users()) {
		t.Fatal("user tables differ")
	}
	if !reflect.DeepEqual(got.Items(), want.Items()) {
		t.Fatal("item tables differ")
	}
	if got.NumRatings() != want.NumRatings() {
		t.Fatalf("ratings %d != %d", got.NumRatings(), want.NumRatings())
	}
	for r := 0; r < want.NumUsers(); r++ {
		gc, gv := got.RowIdx(UserIdx(r))
		wc, wv := want.RowIdx(UserIdx(r))
		if !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("row %d differs", r)
		}
		if !reflect.DeepEqual(got.UserRatings(got.UserAt(UserIdx(r))), idEntries(want, UserIdx(r))) {
			t.Fatalf("UserRatings of row %d differ from the source's RowIdx row through Items()", r)
		}
	}
	for j := 0; j < want.NumItems(); j++ {
		if got.ItemCountIdx(ItemIdx(j)) != want.ItemCountIdx(ItemIdx(j)) {
			t.Fatalf("item count %d differs", j)
		}
	}
}

// TestBinaryV2RoundTripCSR round-trips a non-trivial dataset through
// the current format and requires the CSR views to come back
// identical — the zero-copy contract.
func TestBinaryV2RoundTripCSR(t *testing.T) {
	orig := randomDataset(t, 42)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDataset(t, back, orig)
}

// legacyV1File hand-encodes a valid file in the retired version-1
// layout: magic, u16 version 1, scale as two f64, u32 user count,
// then per user a u32 id, a u32 entry count and (u32 item, f64 value)
// entries.
func legacyV1File() []byte {
	le := binary.LittleEndian
	b := le.AppendUint16([]byte("GFDS"), 1)
	b = le.AppendUint64(b, math.Float64bits(DefaultScale.Min))
	b = le.AppendUint64(b, math.Float64bits(DefaultScale.Max))
	users := []struct {
		id      uint32
		entries []Entry
	}{
		{1, []Entry{{Item: 2, Value: 4.5}, {Item: 7, Value: 3}}},
		{3, []Entry{{Item: 2, Value: 1}}},
	}
	b = le.AppendUint32(b, uint32(len(users)))
	for _, u := range users {
		b = le.AppendUint32(b, u.id)
		b = le.AppendUint32(b, uint32(len(u.entries)))
		for _, e := range u.entries {
			b = le.AppendUint32(b, uint32(e.Item))
			b = le.AppendUint64(b, math.Float64bits(e.Value))
		}
	}
	return b
}

// TestBinaryLegacyV1Fallback pins the fallback's removal: a valid
// version-1 file is rejected by ReadBinary and by the sniffing Load
// with an ErrBadConfig naming the version.
func TestBinaryLegacyV1Fallback(t *testing.T) {
	v1 := legacyV1File()
	load := map[string]func() (*Dataset, error){
		"ReadBinary": func() (*Dataset, error) { return ReadBinary(bytes.NewReader(v1)) },
		"Load":       func() (*Dataset, error) { return Load(bytes.NewReader(v1), DefaultScale) },
	}
	for name, fn := range load {
		ds, err := fn()
		if err == nil {
			t.Fatalf("%s accepted a version-1 file: %s", name, ds.Describe())
		}
		if !errors.Is(err, gferr.ErrBadConfig) || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("%s: error %v should wrap gferr.ErrBadConfig and name version 1", name, err)
		}
	}
}

// TestBinaryErrorsWrapBadConfig pins the error classification:
// truncated or corrupt input, in the current or the retired version-1
// layout, fails with an error wrapping gferr.ErrBadConfig.
func TestBinaryErrorsWrapBadConfig(t *testing.T) {
	ds := randomDataset(t, 44)
	var v2 bytes.Buffer
	if err := WriteBinary(&v2, ds); err != nil {
		t.Fatal(err)
	}
	v1 := legacyV1File()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("definitely not a dataset")},
		{"bad magic", append([]byte("XFDS"), v2.Bytes()[4:]...)},
		{"bad version", append(append([]byte{}, v2.Bytes()[:4]...), 9, 9)},
		{"v2 truncated header", v2.Bytes()[:10]},
		{"v2 truncated counts", v2.Bytes()[:24]},
		{"v2 truncated user table", v2.Bytes()[:40]},
		{"v2 truncated values", v2.Bytes()[:v2.Len()-3]},
		{"v1 truncated header", v1[:10]},
		{"v1 truncated body", v1[:len(v1)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBinary(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("malformed input should error")
			}
			if !errors.Is(err, gferr.ErrBadConfig) {
				t.Fatalf("error %v should wrap gferr.ErrBadConfig", err)
			}
		})
	}
}

// TestBinaryV2RejectsStructuralCorruption mangles structural fields
// (not just truncation) and requires classified rejections.
func TestBinaryV2RejectsStructuralCorruption(t *testing.T) {
	b := NewBuilder(DefaultScale)
	b.MustAdd(1, 1, 3)
	b.MustAdd(2, 2, 4)
	ds := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Layout: magic(4) version(2) scale(16) n(4) m(4) r(8) users(2*4)
	// items(2*4) rowPtr(3*4) colIdx(2*4) vals(2*8).
	const usersOff = 4 + 2 + 16 + 16
	mangle := func(off int, v byte) []byte {
		out := append([]byte{}, good...)
		out[off] = v
		return out
	}
	cases := map[string][]byte{
		// users become 1,1 — out of order.
		"users out of order": mangle(usersOff, 2),
		// rowPtr[2] (last) disagrees with the rating count.
		"rowptr span": mangle(usersOff+16+8, 9),
		// colIdx[0] >= m.
		"column out of range": mangle(usersOff+16+12, 7),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadBinary(bytes.NewReader(data))
			if err == nil {
				t.Fatal("corrupt structure should error")
			}
			if !errors.Is(err, gferr.ErrBadConfig) {
				t.Fatalf("error %v should wrap gferr.ErrBadConfig", err)
			}
		})
	}
}

// TestLoadAutoDetects drives the sniffing loader with both
// containers.
func TestLoadAutoDetects(t *testing.T) {
	orig := randomDataset(t, 45)
	var bin bytes.Buffer
	if err := WriteBinary(&bin, orig); err != nil {
		t.Fatal(err)
	}
	fromBin, err := Load(&bin, DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDataset(t, fromBin, orig)

	fromCSV, err := Load(strings.NewReader("user,item,rating\n1,2,4.5\n3,2,1\n"), DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if fromCSV.NumRatings() != 2 {
		t.Fatalf("CSV load: %v", fromCSV.Describe())
	}
	if v, ok := fromCSV.Rating(1, 2); !ok || v != 4.5 {
		t.Fatalf("CSV rating lost: %v %v", v, ok)
	}
}
