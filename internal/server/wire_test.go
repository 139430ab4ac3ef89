package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"groupform/internal/semantics"
	"groupform/internal/wire"
)

// doWire runs one /form request with explicit per-direction binary
// negotiation headers.
func doWire(t testing.TB, s *Server, body []byte, binReq, binResp bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/form", bytes.NewReader(body))
	if binReq {
		req.Header.Set("Content-Type", wire.ContentType)
	}
	if binResp {
		req.Header.Set("Accept", wire.ContentType)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestWireGoldenByteParity is the format's correctness anchor: for a
// grid of semantics × aggregation × k, the binary response frame —
// decoded and re-serialized through the JSON envelope — must match
// the JSON endpoint's response byte for byte. Solves are
// deterministic, so any divergence is a codec bug, not noise.
func TestWireGoldenByteParity(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sems := []struct {
		str string
		val semantics.Semantics
	}{{"lm", semantics.LM}, {"av", semantics.AV}}
	aggs := []struct {
		str string
		val semantics.Aggregation
	}{
		{"max", semantics.Max},
		{"min", semantics.Min},
		{"sum", semantics.Sum},
		{"wsum-pos", semantics.WeightedSumPos},
		{"wsum-log", semantics.WeightedSumLog},
	}
	for _, sem := range sems {
		for _, agg := range aggs {
			for _, k := range []int{2, 5, 8} {
				jsonRec := doJSON(t, s, "POST", "/form", FormRequest{Dataset: "main",
					FormParams: FormParams{K: k, L: 10, Semantics: sem.str, Aggregation: agg.str}})
				wantStatus(t, jsonRec, http.StatusOK, "")

				frame := wire.AppendFormRequest(nil, wire.FormRequest{
					Dataset: []byte("main"), K: k, L: 10,
					Semantics: sem.val, Aggregation: agg.val,
				})
				binRec := doWire(t, s, frame, true, true)
				if binRec.Code != http.StatusOK {
					t.Fatalf("%s/%s/k=%d: binary status = %d (%s)",
						sem.str, agg.str, k, binRec.Code, binRec.Body.String())
				}
				if ct := binRec.Header().Get("Content-Type"); ct != wire.ContentType {
					t.Fatalf("binary Content-Type = %q, want %q", ct, wire.ContentType)
				}
				res, err := wire.ParseFormResponse(binRec.Body.Bytes())
				if err != nil {
					t.Fatalf("%s/%s/k=%d: parse binary response: %v", sem.str, agg.str, k, err)
				}
				fr := &FormResponse{
					Dataset:   "main",
					Algorithm: res.Algorithm,
					Objective: res.Objective,
					Buckets:   res.Buckets,
					Groups:    make([]GroupJSON, len(res.Groups)),
				}
				for i, g := range res.Groups {
					fr.Groups[i] = GroupJSON{
						Members:      g.Members,
						Items:        g.Items,
						ItemScores:   g.ItemScores,
						Satisfaction: g.Satisfaction,
						Merged:       g.Merged,
					}
				}
				viaBinary, err := marshalBody(fr)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(viaBinary, jsonRec.Body.Bytes()) {
					t.Fatalf("%s/%s/k=%d: byte parity broken:\nbinary->json %s\njson         %s",
						sem.str, agg.str, k, viaBinary, jsonRec.Body.Bytes())
				}
			}
		}
	}
}

// TestWireNegotiationDirections: the two directions are independent —
// every header combination serves, and the mixed forms agree with the
// pure ones.
func TestWireNegotiationDirections(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	frame := wire.AppendFormRequest(nil, wire.FormRequest{
		Dataset: []byte("main"), K: 4, L: 8,
		Semantics: semantics.LM, Aggregation: semantics.Min,
	})
	jsonBody, err := marshalBody(FormRequest{Dataset: "main",
		FormParams: FormParams{K: 4, L: 8, Semantics: "lm", Aggregation: "min"}})
	if err != nil {
		t.Fatal(err)
	}

	// Binary in, JSON out: the response carries the dataset name and
	// matches the all-JSON path exactly.
	jsonRec := doJSON(t, s, "POST", "/form", jsonBody)
	wantStatus(t, jsonRec, http.StatusOK, "")
	mixed := doWire(t, s, frame, true, false)
	wantStatus(t, mixed, http.StatusOK, "")
	if !bytes.Equal(mixed.Body.Bytes(), jsonRec.Body.Bytes()) {
		t.Fatalf("binary-in/JSON-out diverged from JSON path:\n%s\n%s",
			mixed.Body.String(), jsonRec.Body.String())
	}

	// JSON in, binary out agrees with binary in, binary out.
	binFromJSON := doWire(t, s, jsonBody, false, true)
	binFromBin := doWire(t, s, frame, true, true)
	if binFromJSON.Code != http.StatusOK || binFromBin.Code != http.StatusOK {
		t.Fatalf("binary-out statuses = %d, %d", binFromJSON.Code, binFromBin.Code)
	}
	if !bytes.Equal(binFromJSON.Body.Bytes(), binFromBin.Body.Bytes()) {
		t.Fatal("JSON-in/binary-out diverged from binary-in/binary-out")
	}
}

// TestWireEmptyDatasetName: like the JSON path, an empty name
// resolves iff exactly one dataset is loaded.
func TestWireEmptyDatasetName(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	frame := wire.AppendFormRequest(nil, wire.FormRequest{
		K: 3, L: 6, Semantics: semantics.LM, Aggregation: semantics.Min,
	})
	rec := doWire(t, s, frame, true, true)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty name with one dataset: status = %d (%s)", rec.Code, rec.Body.String())
	}
	// The JSON-response form must materialize the resolved name.
	rec = doWire(t, s, frame, true, false)
	wantStatus(t, rec, http.StatusOK, "")
	if fr := decodeAs[FormResponse](t, rec); fr.Dataset != "main" {
		t.Fatalf("resolved dataset = %q, want main", fr.Dataset)
	}
	if err := s.AddDataset("other", testDS(t, 7)); err != nil {
		t.Fatal(err)
	}
	rec = doWire(t, s, frame, true, true)
	wantStatus(t, rec, http.StatusNotFound, CodeNotFound)
}

// TestWireErrorsAreJSON: non-2xx responses keep the JSON ErrorBody
// envelope no matter what the client negotiated — one error shape for
// every client.
func TestWireErrorsAreJSON(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	unknown := wire.AppendFormRequest(nil, wire.FormRequest{
		Dataset: []byte("nope"), K: 3, L: 6,
		Semantics: semantics.LM, Aggregation: semantics.Min,
	})
	// A well-formed frame in the retired version-1 layout: no
	// quality_target field, name length at offset 36.
	le := binary.LittleEndian
	v1 := []byte{'G', 1, 0x01, 0, byte(semantics.AV), byte(semantics.Sum), 0, 0}
	v1 = le.AppendUint32(v1, 5)                     // k
	v1 = le.AppendUint32(v1, 10)                    // l
	v1 = le.AppendUint64(v1, math.Float64bits(2.5)) // missing
	v1 = le.AppendUint32(v1, math.MaxUint32)        // workers -1
	v1 = le.AppendUint64(v1, 1500)                  // timeout_ms
	v1 = le.AppendUint16(v1, 4)
	v1 = append(v1, "main"...)
	cases := []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"unknown dataset", unknown, http.StatusNotFound, CodeNotFound},
		{"version-1 frame", v1, http.StatusBadRequest, CodeBadConfig},
		{"malformed frame", []byte{0xde, 0xad, 0xbe, 0xef}, http.StatusBadRequest, CodeBadConfig},
		{"trailing bytes", append(append([]byte(nil), unknown...), 0), http.StatusBadRequest, CodeBadConfig},
		{"empty body", nil, http.StatusBadRequest, CodeBadConfig},
		{"bad k", wire.AppendFormRequest(nil, wire.FormRequest{Dataset: []byte("main"),
			K: -1, L: 6, Semantics: semantics.LM, Aggregation: semantics.Min}),
			http.StatusBadRequest, CodeBadConfig},
		{"negative timeout", wire.AppendFormRequest(nil, wire.FormRequest{Dataset: []byte("main"),
			K: 3, L: 6, Semantics: semantics.LM, Aggregation: semantics.Min, TimeoutMS: -1}),
			http.StatusBadRequest, CodeBadConfig},
	}
	for _, c := range cases {
		rec := doWire(t, s, c.body, true, true)
		if rec.Code != c.status {
			t.Fatalf("%s: status = %d (%s), want %d", c.name, rec.Code, rec.Body.String(), c.status)
		}
		wantStatus(t, rec, c.status, c.code)
	}
}

// TestWireNonFiniteParamsRejected: a binary frame carries raw float64
// fields, so a NaN or infinite missing value or a NaN quality target
// reaches the solver unless config validation stops it. Both response
// encodings must answer 400 bad_config — not a 500 from the JSON
// encoder, nor a 200 with a NaN or -Inf objective in binary.
func TestWireNonFiniteParamsRejected(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		req  wire.FormRequest
	}{
		{"missing NaN", wire.FormRequest{Missing: nan}},
		{"missing +Inf", wire.FormRequest{Missing: inf}},
		{"missing -Inf", wire.FormRequest{Missing: -inf}},
		{"quality target NaN", wire.FormRequest{Anytime: true, QualityTarget: nan}},
	}
	for _, c := range cases {
		req := c.req
		req.Dataset = []byte("main")
		req.K, req.L = 3, 6
		req.Semantics, req.Aggregation = semantics.AV, semantics.Sum
		frame := wire.AppendFormRequest(nil, req)
		for _, binResp := range []bool{false, true} {
			rec := doWire(t, s, frame, true, binResp)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s (binary response %v): status = %d (%q), want 400", c.name, binResp, rec.Code, rec.Body.String())
			}
			wantStatus(t, rec, http.StatusBadRequest, CodeBadConfig)
		}
	}
	if n := s.LeasedScratches(); n != 0 {
		t.Fatalf("rejected frames leaked %d scratches", n)
	}
}

// TestWireBodyTooLarge: the manual body reader enforces the same cap
// as the JSON path's MaxBytesReader, classified 413.
func TestWireBodyTooLarge(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := doWire(t, s, make([]byte, maxSolveBodyBytes+1), true, true)
	wantStatus(t, rec, http.StatusRequestEntityTooLarge, CodeTooLarge)
	if n := s.LeasedScratches(); n != 0 {
		t.Fatalf("oversized body leaked %d scratches", n)
	}
}

// TestReadLimited exercises the pooled body reader directly: exact
// fits pass, one byte over trips the cap, and warm buffers are
// reused without reallocation.
func TestReadLimited(t *testing.T) {
	buf, err := readLimited(bytes.NewReader(make([]byte, 100)), nil, 100)
	if err != nil || len(buf) != 100 {
		t.Fatalf("exact fit: len=%d err=%v", len(buf), err)
	}
	if _, err := readLimited(bytes.NewReader(make([]byte, 101)), buf[:0], 100); err == nil {
		t.Fatal("101 bytes under a 100-byte cap passed")
	}
	warm := buf[:0]
	again, err := readLimited(bytes.NewReader(make([]byte, 64)), warm, 100)
	if err != nil || len(again) != 64 {
		t.Fatalf("warm read: len=%d err=%v", len(again), err)
	}
	if &again[0] != &buf[0] {
		t.Fatal("warm read reallocated instead of reusing the buffer")
	}
	if _, err := readLimited(io.MultiReader(bytes.NewReader(make([]byte, 60)),
		bytes.NewReader(make([]byte, 60))), nil, 100); err == nil {
		t.Fatal("chunked 120 bytes under a 100-byte cap passed")
	}
}
