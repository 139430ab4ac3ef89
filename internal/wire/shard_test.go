package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/semantics"
)

// sampleScoresRequest covers both probe modes, a refold probe with no
// items, and negative IDs.
func sampleScoresRequest() ScoresRequest {
	return ScoresRequest{
		Dataset: []byte("main"),
		Probes: []core.Probe{
			{Members: []dataset.UserID{3, 9, 12}},
			{Members: []dataset.UserID{1, -4}, Items: []dataset.ItemID{7, 0, -2}},
			{Members: []dataset.UserID{5}, Items: []dataset.ItemID{}},
		},
	}
}

// sampleStats holds records whose floats need every bit: NaN with a
// payload, -0, +Inf and a non-dyadic fraction.
var sampleStats = [][]semantics.ItemStats{
	{
		{Item: 2, Min: 0.1, Count: 3, WSum: 7.3, WRaters: 2.5},
		{Item: 40, Min: math.Copysign(0, -1), Count: 1, WSum: math.Inf(1), WRaters: 1},
	},
	{
		{Item: 7, Min: math.Float64frombits(0x7ff8_0000_0000_beef), Count: 4294967295, WSum: -1, WRaters: 0},
	},
	nil,
}

// sampleScoresResponse encodes sampleStats with per-probe resident
// counts 3, 1 and 0.
func sampleScoresResponse() []byte {
	b := AppendScoresResponse(nil, len(sampleStats))
	for p, recs := range sampleStats {
		b = AppendProbeStats(b, 3-p-p/2, len(recs))
		for _, st := range recs {
			b = AppendItemStats(b, st)
		}
	}
	return b
}

// encodeScores re-encodes a parsed scores response.
func encodeScores(parts []ProbeStats) []byte {
	b := AppendScoresResponse(nil, len(parts))
	for _, ps := range parts {
		b = AppendProbeStats(b, ps.Residents, ps.Len())
		for i := range ps.Len() {
			b = AppendItemStats(b, ps.At(i))
		}
	}
	return b
}

func sampleShardBuckets() *ShardBuckets {
	return &ShardBuckets{
		Dataset:            "main",
		Users:              3,
		Bound:              4.5,
		EffectiveTimeoutMS: 2000,
		Buckets: []core.ShardBucket{
			{Key: []byte{0, 0, 0, 11, 0x40}, Items: []dataset.ItemID{11, 10}, Scores: []float64{4, 3.5}, Members: []dataset.UserID{4, 5}},
			{Key: []byte{}, Items: []dataset.ItemID{}, Scores: []float64{}, Members: []dataset.UserID{6}},
		},
	}
}

// TestShardFramesRoundTrip: each shard frame decodes to the values it
// was built from, bit for bit, and re-encodes to the same bytes.
func TestShardFramesRoundTrip(t *testing.T) {
	req := sampleScoresRequest()
	frame := AppendScoresRequest(nil, req)
	got, err := ParseScoresRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("scores request = %+v, want %+v", got, req)
	}
	if got.Probes[0].Items != nil || got.Probes[2].Items == nil {
		t.Fatalf("probe modes lost: top-k items %v, empty refold items nil=%v", got.Probes[0].Items, got.Probes[2].Items == nil)
	}
	if again := AppendScoresRequest(nil, got); string(again) != string(frame) {
		t.Fatalf("scores request re-encode diverged:\n in %x\nout %x", frame, again)
	}

	frame = sampleScoresResponse()
	parts, err := ParseScoresResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(sampleStats) {
		t.Fatalf("%d probe answers, want %d", len(parts), len(sampleStats))
	}
	for p, want := range sampleStats {
		if parts[p].Residents != 3-p-p/2 || parts[p].Len() != len(want) {
			t.Fatalf("probe %d: residents %d, %d records", p, parts[p].Residents, parts[p].Len())
		}
		for i, st := range want {
			g := parts[p].At(i)
			if g.Item != st.Item || parts[p].Item(i) != st.Item || g.Count != st.Count ||
				math.Float64bits(g.Min) != math.Float64bits(st.Min) ||
				math.Float64bits(g.WSum) != math.Float64bits(st.WSum) ||
				math.Float64bits(g.WRaters) != math.Float64bits(st.WRaters) {
				t.Fatalf("probe %d record %d = %+v, want %+v", p, i, g, st)
			}
		}
	}
	if again := encodeScores(parts); string(again) != string(frame) {
		t.Fatalf("scores response re-encode diverged:\n in %x\nout %x", frame, again)
	}

	sb := sampleShardBuckets()
	frame = AppendShardBuckets(nil, sb)
	gotB, err := ParseShardBuckets(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, sb) {
		t.Fatalf("buckets = %+v, want %+v", gotB, sb)
	}
	if again := AppendShardBuckets(nil, gotB); string(again) != string(frame) {
		t.Fatalf("buckets re-encode diverged:\n in %x\nout %x", frame, again)
	}
}

// TestParseShardFramesRejects: a malformed shard frame of any kind —
// cut anywhere, padded, mislabeled, with flags, a length past its end
// or an unknown probe mode — is an ErrBadConfig error, never a panic.
func TestParseShardFramesRejects(t *testing.T) {
	parsers := []struct {
		name  string
		frame []byte
		parse func([]byte) error
	}{
		{"scores request", AppendScoresRequest(nil, sampleScoresRequest()), func(b []byte) error {
			_, err := ParseScoresRequest(b)
			return err
		}},
		{"scores response", sampleScoresResponse(), func(b []byte) error {
			_, err := ParseScoresResponse(b)
			return err
		}},
		{"buckets", AppendShardBuckets(nil, sampleShardBuckets()), func(b []byte) error {
			_, err := ParseShardBuckets(b)
			return err
		}},
	}
	for _, p := range parsers {
		reject := func(what string, b []byte) {
			t.Helper()
			if err := p.parse(b); !errors.Is(err, gferr.ErrBadConfig) {
				t.Errorf("%s, %s: err = %v, want ErrBadConfig", p.name, what, err)
			}
		}
		for n := range len(p.frame) {
			reject("truncated", p.frame[:n])
		}
		reject("trailing byte", append(append([]byte(nil), p.frame...), 0))
		mutate := func(at int, v byte) []byte {
			b := append([]byte(nil), p.frame...)
			b[at] = v
			return b
		}
		reject("wrong version", mutate(1, 1))
		reject("wrong kind", mutate(2, kindFormRequest))
		reject("flags set", mutate(3, FlagDegraded))
		if p.name != "scores response" {
			reject("name too long", mutate(5, 0xff))
		}
	}
	// Counts past the end: each frame's element count, then the first
	// element's own count (members, records, key bytes).
	req := AppendScoresRequest(nil, sampleScoresRequest())
	for _, at := range []int{4 + 2 + 4, 4 + 2 + 4 + 4 + 1} {
		b := append([]byte(nil), req...)
		b[at+3] = 0x7f
		if _, err := ParseScoresRequest(b); !errors.Is(err, gferr.ErrBadConfig) {
			t.Errorf("scores request count at %d past the end: err = %v", at, err)
		}
	}
	b := append([]byte(nil), req...)
	b[4+2+4+4] = 2
	if _, err := ParseScoresRequest(b); !errors.Is(err, errProbeMode) {
		t.Errorf("unknown probe mode: err = %v, want errProbeMode", err)
	}
	resp := sampleScoresResponse()
	for _, at := range []int{4, 4 + 4 + 4} {
		b := append([]byte(nil), resp...)
		b[at+3] = 0x7f
		if _, err := ParseScoresResponse(b); !errors.Is(err, gferr.ErrBadConfig) {
			t.Errorf("scores response count at %d past the end: err = %v", at, err)
		}
	}
	bk := AppendShardBuckets(nil, sampleShardBuckets())
	for _, at := range []int{4 + 2 + 4 + 4 + 8 + 8, 4 + 2 + 4 + 4 + 8 + 8 + 4} {
		b := append([]byte(nil), bk...)
		b[at+3] = 0x7f
		if _, err := ParseShardBuckets(b); !errors.Is(err, gferr.ErrBadConfig) {
			t.Errorf("buckets count at %d past the end: err = %v", at, err)
		}
	}
}
