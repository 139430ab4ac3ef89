package server

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/wire"
)

// shardGoldenServer is shard 1 of 2 over a hand-built six-user
// dataset: users 4-6 are resident and users 1-3 are not; users 4 and 5
// share a top-2 list, so they fold into one bucket under both
// semantics; item 15 is rated only off-shard (the catalog keeps it);
// and half-star ratings give the partial sums fractions.
func shardGoldenServer(t *testing.T) *Server {
	t.Helper()
	b := dataset.NewBuilder(dataset.DefaultScale)
	for _, r := range []dataset.Rating{
		{User: 1, Item: 10, Value: 5}, {User: 1, Item: 11, Value: 3}, {User: 1, Item: 15, Value: 2},
		{User: 2, Item: 10, Value: 4}, {User: 2, Item: 12, Value: 1.5}, {User: 2, Item: 15, Value: 4},
		{User: 3, Item: 11, Value: 2.5}, {User: 3, Item: 13, Value: 5}, {User: 3, Item: 14, Value: 3},
		{User: 4, Item: 10, Value: 3.5}, {User: 4, Item: 11, Value: 4}, {User: 4, Item: 12, Value: 2}, {User: 4, Item: 13, Value: 1},
		{User: 5, Item: 10, Value: 3.5}, {User: 5, Item: 11, Value: 4.5}, {User: 5, Item: 12, Value: 2}, {User: 5, Item: 14, Value: 2},
		{User: 6, Item: 11, Value: 1}, {User: 6, Item: 12, Value: 3.5}, {User: 6, Item: 13, Value: 4.5}, {User: 6, Item: 14, Value: 5},
	} {
		b.MustAdd(r.User, r.Item, r.Value)
	}
	s := New(Config{Shard: 1, Shards: 2})
	if err := s.AddDataset("main", b.Build()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardEndpointsWireGolden pins the exact bodies of the three
// shard routes — the router's only inputs — so a change to the types
// they encode cannot move a byte unnoticed. The JSON /shard/buckets
// answer is what curl and outside readers get; the router asks for
// the binary one, which must decode to the same values. /shard/scores
// speaks wire frames only, pinned here field by field with
// encoding/binary rather than through the wire encoder. The
// probe-mode request names an item the residents never rated (15)
// and one the dataset does not know (99): both must read count 0 and
// min 0.
func TestShardEndpointsWireGolden(t *testing.T) {
	s := shardGoldenServer(t)
	cases := []struct {
		name, method, path, body, want string
	}{
		{
			name: "buckets lm-min", method: http.MethodPost, path: "/shard/buckets",
			body: `{"dataset":"main","k":2,"l":2,"semantics":"lm","agg":"min"}`,
			want: `{"dataset":"main","users":3,"bound":4.5,"buckets":[{"key":"AAAACwAAAApADAAAAAAAAA==","items":[11,10],"scores":[4,3.5],"members":[4,5]},{"key":"AAAADgAAAA1AEgAAAAAAAA==","items":[14,13],"scores":[5,4.5],"members":[6]}]}` + "\n",
		},
		{
			name: "buckets av-sum", method: http.MethodPost, path: "/shard/buckets",
			body: `{"dataset":"main","k":2,"l":2,"semantics":"av","agg":"sum"}`,
			want: `{"dataset":"main","users":3,"bound":13.5,"buckets":[{"key":"AAAACwAAAAo=","items":[11,10],"scores":[8.5,7],"members":[4,5]},{"key":"AAAADgAAAA0=","items":[14,13],"scores":[5,4.5],"members":[6]}]}` + "\n",
		},
		{
			name: "catalog", method: http.MethodGet, path: "/shard/catalog?dataset=main",
			want: `{"dataset":"main","users":3,"items":[10,11,12,13,14,15],"shard":{"shard":1,"shards":2}}` + "\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body []byte
			if tc.body != "" {
				body = []byte(tc.body)
			}
			rec := doJSON(t, s, tc.method, tc.path, body)
			wantStatus(t, rec, http.StatusOK, "")
			if got := rec.Body.String(); got != tc.want {
				t.Errorf("body\n got %q\nwant %q", got, tc.want)
			}
		})
	}

	// A frame field by field: one ItemStats record is i32 item, f64
	// min, u32 count, f64 wsum, f64 wraters.
	type rec struct {
		Item          int32
		Min           float64
		Count         uint32
		WSum, WRaters float64
	}
	frame := func(kind byte, fields ...any) []byte {
		b := []byte{'G', 2, kind, 0}
		for _, f := range fields {
			var err error
			if b, err = binary.Append(b, binary.LittleEndian, f); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	name, main := uint16(4), []byte("main")
	for _, tc := range []struct {
		name      string
		req, want []byte
	}{
		{
			name: "scores top-k",
			req:  frame(0x03, name, main, uint32(1), uint8(0), uint32(4), []int32{1, 4, 5, 6}),
			want: frame(0x04, uint32(1), uint32(3), uint32(5),
				rec{10, 3.5, 2, 7, 2}, rec{11, 1, 3, 9.5, 3}, rec{12, 2, 3, 7.5, 3},
				rec{13, 1, 2, 5.5, 2}, rec{14, 2, 2, 7, 2}),
		},
		{
			name: "scores probe",
			req:  frame(0x03, name, main, uint32(1), uint8(1), uint32(2), []int32{4, 6}, uint32(4), []int32{15, 12, 99, 10}),
			want: frame(0x04, uint32(1), uint32(2), uint32(4),
				rec{15, 0, 0, 0, 0}, rec{12, 2, 2, 5.5, 2}, rec{99, 0, 0, 0, 0}, rec{10, 3.5, 1, 3.5, 1}),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/shard/scores", bytes.NewReader(tc.req))
			r.Header.Set("Content-Type", wire.ContentType)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusOK || w.Header().Get("Content-Type") != wire.ContentType {
				t.Fatalf("status %d, Content-Type %q: %s", w.Code, w.Header().Get("Content-Type"), w.Body)
			}
			if got := w.Body.Bytes(); !bytes.Equal(got, tc.want) {
				t.Errorf("body\n got %x\nwant %x", got, tc.want)
			}
		})
	}

	t.Run("buckets binary", func(t *testing.T) {
		for _, body := range []string{
			`{"dataset":"main","k":2,"l":2,"semantics":"lm","agg":"min"}`,
			`{"dataset":"main","k":2,"l":2,"semantics":"av","agg":"sum"}`,
		} {
			want := decodeAs[ShardBucketsResponse](t, doJSON(t, s, http.MethodPost, "/shard/buckets", []byte(body)))
			r := httptest.NewRequest(http.MethodPost, "/shard/buckets", strings.NewReader(body))
			r.Header.Set("Accept", wire.ContentType)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusOK || w.Header().Get("Content-Type") != wire.ContentType {
				t.Fatalf("status %d, Content-Type %q: %s", w.Code, w.Header().Get("Content-Type"), w.Body)
			}
			got, err := wire.ParseShardBuckets(w.Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			asJSON := ShardBucketsResponse{Dataset: got.Dataset, Users: got.Users, Bound: got.Bound,
				Buckets: got.Buckets, EffectiveTimeoutMS: got.EffectiveTimeoutMS}
			if !reflect.DeepEqual(asJSON, want) {
				t.Errorf("%s: binary decodes to\n%+v\nwant the JSON answer's\n%+v", body, asJSON, want)
			}
		}
	})
}

// TestShardScoresRejects: a /shard/scores body that is not a
// well-formed scores frame, or that asks about no group or an empty
// one, is a 400 bad_config in the JSON ErrorBody; an unknown dataset
// is a 404.
func TestShardScoresRejects(t *testing.T) {
	s := shardGoldenServer(t)
	ok := wire.AppendScoresRequest(nil, wire.ScoresRequest{Dataset: []byte("main"),
		Probes: []core.Probe{{Members: []dataset.UserID{4, 5}}}})
	mutate := func(at int, v byte) []byte {
		b := append([]byte(nil), ok...)
		b[at] = v
		return b
	}
	probes := func(ps ...core.Probe) []byte {
		return wire.AppendScoresRequest(nil, wire.ScoresRequest{Dataset: []byte("main"), Probes: ps})
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"json body", []byte(`{"dataset":"main","members":[4,5]}`), http.StatusBadRequest, CodeBadConfig},
		{"empty body", nil, http.StatusBadRequest, CodeBadConfig},
		{"truncated", ok[:len(ok)-1], http.StatusBadRequest, CodeBadConfig},
		{"trailing byte", append(append([]byte(nil), ok...), 0), http.StatusBadRequest, CodeBadConfig},
		{"wrong version", mutate(1, 1), http.StatusBadRequest, CodeBadConfig},
		{"unknown probe mode", mutate(4+2+4+4, 2), http.StatusBadRequest, CodeBadConfig},
		{"no probes", probes(), http.StatusBadRequest, CodeBadConfig},
		{"empty group", probes(core.Probe{Members: []dataset.UserID{4}}, core.Probe{}), http.StatusBadRequest, CodeBadConfig},
		{"unknown dataset", wire.AppendScoresRequest(nil, wire.ScoresRequest{Dataset: []byte("nope"),
			Probes: []core.Probe{{Members: []dataset.UserID{4}}}}), http.StatusNotFound, CodeNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/shard/scores", bytes.NewReader(tc.body))
			r.Header.Set("Content-Type", wire.ContentType)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			wantStatus(t, w, tc.status, tc.code)
		})
	}
}
