package server

import (
	"net/http"
	"testing"

	"groupform/internal/dataset"
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
// they encode cannot move a byte unnoticed. The probe-mode request
// names an item the residents never rated (15) and one the dataset
// does not know (99): both must read "count":0,"min":0, never an
// unencodable +Inf.
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
			name: "scores top-k", method: http.MethodPost, path: "/shard/scores",
			body: `{"dataset":"main","members":[1,4,5,6]}`,
			want: `{"dataset":"main","residents":3,"stats":[{"item":10,"min":3.5,"count":2,"wsum":7,"wraters":2},{"item":11,"min":1,"count":3,"wsum":9.5,"wraters":3},{"item":12,"min":2,"count":3,"wsum":7.5,"wraters":3},{"item":13,"min":1,"count":2,"wsum":5.5,"wraters":2},{"item":14,"min":2,"count":2,"wsum":7,"wraters":2}]}` + "\n",
		},
		{
			name: "scores probe", method: http.MethodPost, path: "/shard/scores",
			body: `{"dataset":"main","members":[4,6],"items":[15,12,99,10]}`,
			want: `{"dataset":"main","residents":2,"stats":[{"item":15,"min":0,"count":0,"wsum":0,"wraters":0},{"item":12,"min":2,"count":2,"wsum":5.5,"wraters":2},{"item":99,"min":0,"count":0,"wsum":0,"wraters":0},{"item":10,"min":3.5,"count":1,"wsum":3.5,"wraters":1}]}` + "\n",
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
}
