package server

import (
	"errors"
	"io"
	"net/http"
	"strings"

	"groupform/internal/core"
	"groupform/internal/gferr"
	"groupform/internal/solver"
	"groupform/internal/wire"
)

// Binary wire path for POST /form. Negotiation is header-driven and
// the two directions are independent: a request whose Content-Type
// is wire.ContentType carries a binary body, and a request whose
// Accept mentions wire.ContentType gets a binary response. Any
// combination works (binary in / JSON out and vice versa), so a
// client can migrate one direction at a time. Error responses are
// always the JSON ErrorBody regardless of Accept — a failed request
// has no hot path to protect, and one error shape keeps clients and
// curl debugging simple.
//
// The point of the binary path is the alloc profile. The JSON
// envelope costs ~30 allocations per /form response (GroupJSON
// slices, marshal buffers); the binary path serves the same solve
// from pooled state end to end — request bytes into a pooled buffer,
// decode in place (the dataset name aliases the frame), registry
// lookup without materializing the name, solve on the pooled
// scratch, encode straight from the Result's scratch-backed slices
// into a second pooled buffer — putting the full warm handler at
// ≤ 5 allocs/op (pinned by TestServerFormBinarySteadyStateZeroAlloc
// and BenchmarkServerFormBinary).

// maxRetainedWireBuf caps the buffer capacity releaseWireBuf returns
// to the pool. One pathological giant response must not pin megabytes
// inside the pool forever; past this the buffer is dropped for the GC
// and the next lease regrows organically.
const maxRetainedWireBuf = 1 << 22

// wireBuf is the pooled per-request buffer pair of the binary path.
// Two buffers because their lifetimes overlap: the decoded request's
// dataset name aliases in while the response is being appended to
// out.
type wireBuf struct {
	in, out []byte
}

//gfvet:zeroalloc
func (s *Server) leaseWireBuf() *wireBuf {
	return s.wireBufs.Get().(*wireBuf)
}

//gfvet:zeroalloc
func (s *Server) releaseWireBuf(b *wireBuf) {
	if cap(b.in) > maxRetainedWireBuf {
		b.in = nil
	}
	if cap(b.out) > maxRetainedWireBuf {
		b.out = nil
	}
	s.wireBufs.Put(b)
}

// isBinaryRequest reports whether the request body is a binary frame.
//
//gfvet:zeroalloc
func isBinaryRequest(r *http.Request) bool {
	return r.Header.Get("Content-Type") == wire.ContentType
}

// wantsBinary reports whether the client negotiated a binary
// response. A plain Contains — not full Accept parsing with q-values
// — because the media type is specific enough that mentioning it at
// all is the opt-in.
//
//gfvet:zeroalloc
func wantsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

// readLimited reads r to EOF into buf (reusing its capacity — warm
// buffers make this allocation-free) with a hard size cap, the
// manual twin of http.MaxBytesReader for a body that must land in a
// pooled buffer instead of a decoder. The grown buffer is returned
// even on error so the pool keeps the capacity.
//
//gfvet:zeroalloc
func readLimited(r io.Reader, buf []byte, limit int) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			// decodeJSON's MaxBytesReader refusal, for a body read by hand.
			//gfvet:allow hotpathalloc -- cold rejection path; formats only once the body is already over the cap
			return buf, gferr.TooLargef("server: request body exceeds %d bytes", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// writeBodyError classifies a failed body read: client gone is a
// cancellation, the size cap is 413, anything else a bad request.
func (s *Server) writeBodyError(w http.ResponseWriter, r *http.Request, err error) {
	if ctxErr := r.Context().Err(); ctxErr != nil {
		writeError(w, StatusClientClosedRequest, CodeCanceled,
			"server: request body read canceled: "+ctxErr.Error())
		return
	}
	if errors.Is(err, gferr.ErrTooLarge) {
		writeSolverError(w, err)
		return
	}
	writeSolverError(w, gferr.BadConfigf("server: read request body: %v", err))
}

// serveForm serves POST /form in whichever encodings the request
// negotiated: a JSON or binary body in, a JSON or binary answer out.
// The caller (handleForm) already holds the admission slot. Each
// branch counts the request against its dataset as soon as the name
// resolves.
//
//gfvet:zeroalloc
func (s *Server) serveForm(w http.ResponseWriter, r *http.Request, binReq, binResp bool) {
	wb := s.leaseWireBuf()
	defer s.releaseWireBuf(wb)

	var (
		eng       *solver.Engine
		name      string // the resolved name, for a JSON response
		cfg       core.Config
		timeoutMS int64
	)
	if binReq {
		var err error
		wb.in, err = readLimited(r.Body, wb.in[:0], maxSolveBodyBytes)
		if err != nil {
			s.writeBodyError(w, r, err)
			return
		}
		req, err := wire.ParseFormRequest(wb.in)
		if err != nil {
			writeSolverError(w, err)
			return
		}
		var ent *dsEntry
		var ok bool
		ent, eng, name, ok = s.reg.entryWire(req.Dataset)
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound,
				notFoundMsg(string(req.Dataset), s.reg.Names()))
			return
		}
		ent.requests.Inc()
		if name == "" && !binResp {
			// Only the JSON response needs the name materialized; the
			// binary response omits it (the client supplied it).
			name = string(req.Dataset)
		}
		// No vocabulary parsing: the wire enums were validated
		// during decode.
		cfg = core.Config{K: req.K, L: req.L, Semantics: req.Semantics,
			Aggregation: req.Aggregation, Missing: req.Missing,
			Workers: requestWorkers(req.Workers, s.cfg.Workers),
			Anytime: req.Anytime, QualityTarget: req.QualityTarget}
		timeoutMS = req.TimeoutMS
	} else {
		var req FormRequest
		if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxSolveBodyBytes), &req); err != nil {
			writeSolverError(w, err)
			return
		}
		var ok bool
		if eng, name, ok = s.resolve(w, req.Dataset); !ok {
			return
		}
		var err error
		if cfg, err = req.config(s.cfg.Workers); err != nil {
			writeSolverError(w, err)
			return
		}
		timeoutMS = req.TimeoutMS
	}

	ctx, cancel, effMS, err := s.solveCtx(r, timeoutMS)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	defer cancel()
	res, sc, err := s.formOnScratch(ctx, eng, cfg)
	defer s.releaseScratch(sc)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	s.observeDegraded(&s.met.form, res.Partial)
	if !binResp {
		resp := toFormResponse(name, res, false)
		resp.EffectiveTimeoutMS = effMS
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// The binary frame has no field for the clamped deadline; the
	// clamp itself still applied above (effMS is JSON-only).
	_ = effMS
	// The frame reads the Result's scratch-backed slices in place; the
	// deferred release runs only after Write has copied every byte.
	wb.out = wire.AppendFormResponse(wb.out[:0], res)
	s.met.binaryResponses.Inc()
	writeFrame(w, wb.out)
}

// writeFrame writes a wire frame as a 200 answer.
//
//gfvet:zeroalloc
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}
