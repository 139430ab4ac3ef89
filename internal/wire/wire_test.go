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

func sampleRequest() FormRequest {
	return FormRequest{
		Dataset:     []byte("main"),
		K:           5,
		L:           10,
		Semantics:   semantics.AV,
		Aggregation: semantics.Sum,
		Missing:     2.5,
		Workers:     -1,
		TimeoutMS:   1500,
	}
}

func TestFormRequestRoundTrip(t *testing.T) {
	cases := []FormRequest{
		sampleRequest(),
		{Dataset: nil, K: 0, L: 0, Semantics: semantics.LM, Aggregation: semantics.Max},
		{Dataset: []byte("x"), K: 1 << 20, L: 3, Semantics: semantics.LM,
			Aggregation: semantics.WeightedSumLog, Missing: math.Inf(-1), Workers: 64, TimeoutMS: 0},
		{Dataset: []byte("main"), K: 3, L: 4, Semantics: semantics.AV,
			Aggregation: semantics.Min, TimeoutMS: 50, Anytime: true},
		{Dataset: []byte("main"), K: 3, L: 4, Semantics: semantics.LM,
			Aggregation: semantics.Sum, Anytime: true, QualityTarget: 0.9},
	}
	for _, want := range cases {
		frame := AppendFormRequest(nil, want)
		got, err := ParseFormRequest(frame)
		if err != nil {
			t.Fatalf("parse %+v: %v", want, err)
		}
		// Normalize the nil/empty alias distinction.
		if len(got.Dataset) == 0 {
			got.Dataset = nil
		}
		if len(want.Dataset) == 0 {
			want.Dataset = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}
}

func TestParseFormRequestRejects(t *testing.T) {
	ok := AppendFormRequest(nil, sampleRequest())
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), ok...)
		return f(b)
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"short", ok[:10]},
		{"truncated name", ok[:len(ok)-2]},
		{"trailing", append(append([]byte(nil), ok...), 0xff)},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", mutate(func(b []byte) []byte { b[1] = 9; return b })},
		{"response kind", mutate(func(b []byte) []byte { b[2] = kindFormResponse; return b })},
		{"unknown flag bits", mutate(func(b []byte) []byte { b[3] |= 0x80; return b })},
		{"v1 flags nonzero", mutate(func(b []byte) []byte { b[1] = 1; b[3] = 1; return b })},
		{"reserved body", mutate(func(b []byte) []byte { b[6] = 1; return b })},
		{"bad semantics", mutate(func(b []byte) []byte { b[4] = 7; return b })},
		{"bad aggregation", mutate(func(b []byte) []byte { b[5] = 9; return b })},
		{"name too long", mutate(func(b []byte) []byte { b[44], b[45] = 0xff, 0xff; return b })},
	}
	for _, c := range cases {
		if _, err := ParseFormRequest(c.frame); !errors.Is(err, gferr.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", c.name, err)
		}
	}
}

// v1Request hand-encodes sampleRequest in the retired version-1
// layout: no quality_target field, name length at offset 36.
func v1Request() []byte {
	want := sampleRequest()
	b := []byte{magic, 1, kindFormRequest, 0}
	b = append(b, byte(want.Semantics), byte(want.Aggregation), 0, 0)
	b = appendU32(b, uint32(want.K))
	b = appendU32(b, uint32(want.L))
	b = appendF64(b, want.Missing)
	b = appendU32(b, uint32(int32(want.Workers)))
	b = appendU64(b, uint64(want.TimeoutMS))
	b = appendU16(b, uint16(len(want.Dataset)))
	return append(b, want.Dataset...)
}

// TestFormRequestV1Fallback pins the fallback's removal: a
// well-formed version-1 frame is rejected as a bad version.
func TestFormRequestV1Fallback(t *testing.T) {
	got, err := ParseFormRequest(v1Request())
	if err == nil {
		t.Fatalf("version-1 frame decoded as %+v", got)
	}
	if !errors.Is(err, gferr.ErrBadConfig) || !errors.Is(err, errVersion) {
		t.Fatalf("err = %v, want errVersion wrapping ErrBadConfig", err)
	}
}

func sampleResult() *core.Result {
	return &core.Result{
		Algorithm: "grd",
		Objective: 12.75,
		Buckets:   4,
		Groups: []core.Group{
			{
				Members:      []dataset.UserID{1, 2, 9},
				Items:        []dataset.ItemID{7, 3},
				ItemScores:   []float64{4.5, 3.25},
				Satisfaction: 3.25,
			},
			{
				Members:      []dataset.UserID{4},
				Items:        []dataset.ItemID{1},
				ItemScores:   []float64{5},
				Satisfaction: 5,
				Merged:       true,
			},
		},
	}
}

func TestFormResponseRoundTrip(t *testing.T) {
	res := sampleResult()
	frame := AppendFormResponse(nil, res)
	got, err := ParseFormResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != res.Algorithm || got.Objective != res.Objective || got.Buckets != res.Buckets {
		t.Fatalf("scalar mismatch: %+v vs %+v", got, res)
	}
	if len(got.Groups) != len(res.Groups) {
		t.Fatalf("group count %d, want %d", len(got.Groups), len(res.Groups))
	}
	for i, g := range got.Groups {
		want := res.Groups[i]
		if !reflect.DeepEqual(g.Members, want.Members) ||
			!reflect.DeepEqual(g.Items, want.Items) ||
			!reflect.DeepEqual(g.ItemScores, want.ItemScores) ||
			g.Satisfaction != want.Satisfaction || g.Merged != want.Merged {
			t.Fatalf("group %d = %+v, want %+v", i, g, want)
		}
	}
}

// TestFormResponseDegraded round-trips the degraded block and checks
// that a complete result's frame, relabeled version 1, is rejected.
func TestFormResponseDegraded(t *testing.T) {
	res := sampleResult()
	res.Partial = &core.Partial{Bound: 20.5, Gap: 7.75, Completed: 3, Total: 8}
	frame := AppendFormResponse(nil, res)
	if frame[3]&FlagDegraded == 0 {
		t.Fatalf("degraded flag not set: header % x", frame[:4])
	}
	got, err := ParseFormResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.Bound != 20.5 || got.Gap != 7.75 || got.Completed != 3 || got.Total != 8 {
		t.Fatalf("degraded block = %+v", got)
	}
	if got.Objective != res.Objective || len(got.Groups) != len(res.Groups) {
		t.Fatalf("degraded body mismatch: %+v", got)
	}

	// A complete result sets no flag and carries no block. The same
	// bytes relabeled version 1 were a valid version-1 frame; the
	// reader no longer accepts them.
	res.Partial = nil
	v2 := AppendFormResponse(nil, res)
	if v2[3] != 0 {
		t.Fatalf("complete result set flags %#x", v2[3])
	}
	v1 := append([]byte(nil), v2...)
	v1[1] = 1
	if got1, err := ParseFormResponse(v1); !errors.Is(err, gferr.ErrBadConfig) {
		t.Fatalf("version-1 frame: got %+v, err = %v, want ErrBadConfig", got1, err)
	}
}

func TestFormResponseEmpty(t *testing.T) {
	frame := AppendFormResponse(nil, &core.Result{Algorithm: "grd"})
	got, err := ParseFormResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 0 || got.Objective != 0 {
		t.Fatalf("empty result decoded as %+v", got)
	}
}

func TestParseFormResponseRejects(t *testing.T) {
	ok := AppendFormResponse(nil, sampleResult())
	truncations := 0
	for n := 0; n < len(ok); n++ {
		if _, err := ParseFormResponse(ok[:n]); err == nil {
			t.Fatalf("prefix of %d bytes parsed cleanly", n)
		} else if !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("prefix %d: err = %v, want ErrBadConfig", n, err)
		} else {
			truncations++
		}
	}
	if truncations != len(ok) {
		t.Fatalf("expected every strict prefix to fail, got %d/%d", truncations, len(ok))
	}
	if _, err := ParseFormResponse(append(append([]byte(nil), ok...), 0)); !errors.Is(err, gferr.ErrBadConfig) {
		t.Fatalf("trailing byte: err = %v, want ErrBadConfig", err)
	}
	// A huge group count must be rejected by the size guard, not
	// attempted as an allocation.
	b := append([]byte(nil), ok...)
	b[4+1+3+8+4] = 0xff // low byte of the group-count field (alg "grd")
	b[4+1+3+8+4+3] = 0xff
	if _, err := ParseFormResponse(b); !errors.Is(err, gferr.ErrBadConfig) {
		t.Fatalf("hostile group count: err = %v, want ErrBadConfig", err)
	}
	// Unknown flag bits are a framing error, and every strict prefix
	// of a degraded frame (whose certificate block precedes the body)
	// fails too.
	b = append([]byte(nil), ok...)
	b[3] |= 0x80
	if _, err := ParseFormResponse(b); !errors.Is(err, gferr.ErrBadConfig) {
		t.Fatalf("unknown response flags: err = %v, want ErrBadConfig", err)
	}
	degRes := sampleResult()
	degRes.Partial = &core.Partial{Bound: 20, Gap: 7.25, Completed: 3, Total: 8}
	deg := AppendFormResponse(nil, degRes)
	for n := 0; n < len(deg); n++ {
		if _, err := ParseFormResponse(deg[:n]); !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("degraded prefix %d: err = %v, want ErrBadConfig", n, err)
		}
	}
}

// TestAppendZeroAlloc pins the wire path's reason to exist: encoding
// into a warm buffer and decoding a request do not allocate.
func TestAppendZeroAlloc(t *testing.T) {
	res := sampleResult()
	deg := sampleResult()
	deg.Partial = &core.Partial{Bound: 20, Gap: 7.25, Completed: 3, Total: 8}
	req := sampleRequest()
	req.Anytime = true
	req.QualityTarget = 0.9
	respBuf := AppendFormResponse(nil, res)
	degBuf := AppendFormResponse(nil, deg)
	reqBuf := AppendFormRequest(nil, req)
	allocs := testing.AllocsPerRun(100, func() {
		respBuf = AppendFormResponse(respBuf[:0], res)
		degBuf = AppendFormResponse(degBuf[:0], deg)
		reqBuf = AppendFormRequest(reqBuf[:0], req)
		if _, err := ParseFormRequest(reqBuf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm encode+decode allocated %v times, want 0", allocs)
	}
}
