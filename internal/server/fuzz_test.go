package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"groupform/internal/dataset"
	"groupform/internal/gferr"
)

// tinyDS is the minimal dataset the fuzz servers solve against —
// FromDense so each fuzz worker process rebuilds it in microseconds.
func tinyDS(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.FromDense(dataset.DefaultScale, [][]float64{
		{5, 1, 3, 2}, {1, 5, 2, 4}, {4, 4, 1, 1}, {2, 3, 5, 1}, {1, 1, 1, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// FuzzFormRequest fuzzes the /form request path end to end: the
// strict JSON decoder must classify every rejection as ErrBadConfig
// (never panic, never misparse), and the full handler must answer any
// body with one of the contract's status codes while returning every
// scratch lease.
func FuzzFormRequest(f *testing.F) {
	f.Add([]byte(`{"dataset":"main","k":2,"l":2,"semantics":"lm","agg":"min"}`))
	f.Add([]byte(`{"k":2,"l":2,"semantics":"av","agg":"sum","missing":1.5,"workers":2}`))
	f.Add([]byte(`{"k":2,"l":2,"semantics":"av","agg":"sum","timeout_ms":1}`))
	f.Add([]byte(`{"k":2,"l":2,"semantics":"lm","agg":"min","timeout_ms":-5}`))
	f.Add([]byte(`{"dataset":"main","k":2,"l":2,"semantics":"lm","agg":"min","anytime":true}`))
	f.Add([]byte(`{"dataset":"main","k":2,"l":2,"semantics":"av","agg":"sum","anytime":true,"quality_target":0.9}`))
	f.Add([]byte(`{"dataset":"main","k":2,"l":2,"semantics":"lm","agg":"min","anytime":true,"quality_target":1}`))
	f.Add([]byte(`{"k":2,"l":2,"semantics":"lm","agg":"min","quality_target":0.5}`))                 // target without anytime
	f.Add([]byte(`{"k":2,"l":2,"semantics":"lm","agg":"min","anytime":true,"quality_target":1.5}`))  // out of range
	f.Add([]byte(`{"k":2,"l":2,"semantics":"lm","agg":"min","anytime":true,"quality_target":-0.5}`)) // out of range
	f.Add([]byte(`{"k":2,"l":2,"semantics":"lm","agg":"min","anytime":"yes"}`))
	f.Add([]byte(`{"k":2,"l":2,"semantics":"lm","agg":"min","anytime":true,"timeout_ms":1}`))
	f.Add([]byte(`{"k":-1,"l":0,"semantics":"lm","agg":"min"}`))
	f.Add([]byte(`{"k":1000000,"l":2,"semantics":"lm","agg":"min"}`))
	f.Add([]byte(`{"semantics":"median","agg":"p99"}`))
	f.Add([]byte(`{"bogus":true}`))
	f.Add([]byte(`{"k":"two"}`))
	f.Add([]byte(`{}{}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\xff\xfe garbage"))

	srv := New(Config{})
	if err := srv.AddDataset("main", tinyDS(f)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder-level contract: any rejection wraps ErrBadConfig.
		var req FormRequest
		if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
			if !errors.Is(err, gferr.ErrBadConfig) {
				t.Fatalf("decode rejection not classified ErrBadConfig: %v", err)
			}
		}

		// Handler-level contract: no panic, no 5xx, no leaked lease.
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/form", bytes.NewReader(data))
		srv.ServeHTTP(rec, r)
		switch rec.Code {
		case 200, 400, 404, 413, StatusClientClosedRequest:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, data, rec.Body.String())
		}
		if n := srv.LeasedScratches(); n != 0 {
			t.Fatalf("leaked %d scratches on body %q", n, data)
		}
	})
}

// FuzzDatasetUpload fuzzes POST /datasets/{name} with arbitrary
// bodies — truncated binary streams, malformed CSV, oversized uploads
// against a deliberately small MaxUploadBytes — extending the dataset
// fuzz surface to the serving boundary. Contract: 2xx/400/413 only,
// no panic, and a 2xx must leave a servable engine in the registry.
func FuzzDatasetUpload(f *testing.F) {
	ds := tinyDS(f)
	var bin bytes.Buffer
	if err := dataset.WriteBinary(&bin, ds); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("user,item,rating\n1,1,5\n1,2,3\n2,1,4\n"))
	f.Add([]byte("1,1,5\n2,2,2\n"))
	f.Add(bin.Bytes())
	for _, cut := range []int{1, 4, 8, 16, bin.Len() / 2, bin.Len() - 1} {
		if cut < bin.Len() {
			f.Add(bin.Bytes()[:cut])
		}
	}
	f.Add([]byte("GFDS")) // magic only
	// A valid file in the retired version-1 layout (magic, u16
	// version 1, scale, u32 user count, then per user a u32 id, a u32
	// entry count and (u32 item, f64 value) entries) seeds the
	// version rejection.
	le := binary.LittleEndian
	v1 := le.AppendUint16([]byte("GFDS"), 1)
	v1 = le.AppendUint64(v1, math.Float64bits(1))
	v1 = le.AppendUint64(v1, math.Float64bits(5))
	v1 = le.AppendUint32(v1, 2) // users
	v1 = le.AppendUint32(v1, 1) // user 1: items 2 and 7
	v1 = le.AppendUint32(v1, 2)
	v1 = le.AppendUint32(v1, 2)
	v1 = le.AppendUint64(v1, math.Float64bits(4.5))
	v1 = le.AppendUint32(v1, 7)
	v1 = le.AppendUint64(v1, math.Float64bits(3))
	v1 = le.AppendUint32(v1, 3) // user 3: item 2
	v1 = le.AppendUint32(v1, 1)
	v1 = le.AppendUint32(v1, 2)
	v1 = le.AppendUint64(v1, math.Float64bits(1))
	f.Add(v1)
	f.Add([]byte(""))
	f.Add([]byte("user,item,rating\n1,1,99\n"))  // rating off scale
	f.Add(bytes.Repeat([]byte("1,1,5\n"), 3000)) // larger than the cap below

	srv := New(Config{MaxUploadBytes: 8 * 1024})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/datasets/fuzzed", bytes.NewReader(data))
		srv.ServeHTTP(rec, r)
		switch rec.Code {
		case 200, 201, 400, 413:
		default:
			t.Fatalf("status %d for %d-byte body: %s", rec.Code, len(data), rec.Body.String())
		}
		if rec.Code < 300 {
			// A successful upload must be servable.
			if !contains(srv.Datasets(), "fuzzed") {
				t.Fatal("2xx upload missing from registry")
			}
			if !strings.Contains(rec.Body.String(), `"ratings"`) {
				t.Fatalf("2xx upload body %q lacks stats", rec.Body.String())
			}
		}
	})
}

// FuzzRatingUpsert fuzzes POST /datasets/{name}/ratings: malformed,
// duplicate and out-of-range upsert bodies must never 5xx, every
// decoder- or envelope-level rejection must wrap ErrBadConfig, no
// scratch lease may leak, and the served dataset must survive every
// body — including the compaction churn a low CompactAfter provokes
// on the accepted ones.
func FuzzRatingUpsert(f *testing.F) {
	f.Add([]byte(`{"user":1,"item":2,"value":3}`))
	f.Add([]byte(`{"ratings":[{"user":1,"item":1,"value":5},{"user":1,"item":1,"value":2}]}`))
	f.Add([]byte(`{"ratings":[{"user":9000,"item":1,"value":4}]}`)) // fresh appendable user
	f.Add([]byte(`{"ratings":[{"user":0,"item":1,"value":4}]}`))    // mid-range: rebuild fallback
	f.Add([]byte(`{"user":1,"item":2,"value":3,"ratings":[{"user":1,"item":1,"value":5}]}`))
	f.Add([]byte(`{"user":1,"value":3}`))
	f.Add([]byte(`{"ratings":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"user":1,"item":2,"value":99}`))          // off scale
	f.Add([]byte(`{"user":1,"item":2,"value":-1}`))          // off scale, negative
	f.Add([]byte(`{"user":99999999999,"item":1,"value":3}`)) // overflows the ID type
	f.Add([]byte(`{"user":1.5,"item":2,"value":3}`))         // fractional ID
	f.Add([]byte(`{"user":1,"item":2,"value":3,"bogus":true}`))
	f.Add([]byte(`{"user":1,"item":2,"value":3}{}`))
	f.Add([]byte(`{"ratings":`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\xff\xfe garbage"))

	srv := New(Config{CompactAfter: 4})
	if err := srv.AddDataset("main", tinyDS(f)); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.WaitCompactions)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder/envelope contract: any rejection wraps ErrBadConfig.
		var req UpsertRequest
		if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
			if !errors.Is(err, gferr.ErrBadConfig) {
				t.Fatalf("decode rejection not classified ErrBadConfig: %v", err)
			}
		} else if _, err := req.ratings(); err != nil && !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("envelope rejection not classified ErrBadConfig: %v", err)
		}

		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/datasets/main/ratings", bytes.NewReader(data))
		srv.ServeHTTP(rec, r)
		switch rec.Code {
		case 200, 400, 413:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, data, rec.Body.String())
		}
		if n := srv.LeasedScratches(); n != 0 {
			t.Fatalf("leaked %d scratches on body %q", n, data)
		}
		if !contains(srv.Datasets(), "main") {
			t.Fatalf("dataset vanished after body %q", data)
		}
		if rec.Code == 200 && !strings.Contains(rec.Body.String(), `"ratings"`) {
			t.Fatalf("2xx upsert body %q lacks stats", rec.Body.String())
		}
	})
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
