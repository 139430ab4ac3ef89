package server

// Shard-role endpoints: the scatter half of the distributed
// formation tier (see docs/ARCHITECTURE.md, "The scatter-gather
// tier"). A groupformd started with -shard i/S slices every loaded
// dataset to shard i's resident users (dataset.ShardUsers) and
// answers three extra routes the router fans out to. A routed request
// costs two calls per shard, whatever its plan:
//
//	POST /shard/buckets — the scatter call: run preference ranking +
//	    bucketizing over the resident slice and return the per-shard
//	    candidate buckets (core.BucketizeShard) plus this shard's
//	    anytime bound contribution, as a wire frame when Accept names
//	    the binary media type and as JSON otherwise.
//	POST /shard/scores  — the gather call: one wire frame listing
//	    every probe of the router's finalization plan, answered with
//	    one frame of per-probe, per-item partial score stats
//	    (semantics.ItemStats) over the residents of each probe's
//	    members, so the router can reassemble exact LM / bounded-error
//	    AV group scores without moving ratings.
//	GET  /shard/catalog — the full item catalog (every shard keeps
//	    it; ShardUsers preserves zero-rated items) plus the shard
//	    topology, for the router's preference-list padding and
//	    boot-time sanity checks.
//
// The routes are always mounted — a non-sharded server answers them
// over its full dataset, which is exactly the S=1 degenerate topology
// and what the parity tests exploit. Config.Shards only controls the
// dataset slicing (and makes the server read-only: an upsert on one
// shard would break the partition invariant the router's
// Σresidents == len(members) check enforces).

import (
	"net/http"
	"strconv"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/semantics"
	"groupform/internal/wire"
)

// maxShardBodyBytes caps /shard/scores request bodies. Unlike a
// /form request (a handful of scalars), a scores request carries the
// member lists of every probed group. The groups of one plan are
// disjoint, so a batch lists each user at most once: 4 bytes a user
// plus the refold pieces' items, which this cap allows for some 16M
// users, where the 1 MiB solve cap would refuse a 262k-user remainder.
const maxShardBodyBytes = 64 << 20

// ShardInfo reports a server's position in the user partition.
type ShardInfo struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
}

// ShardBucketsResponse is the JSON body of a successful POST
// /shard/buckets; a binary answer carries the same fields as a
// wire.ShardBuckets frame.
type ShardBucketsResponse struct {
	Dataset string `json:"dataset"`
	// Users is the resident user count — the router sums these and
	// checks the total against every shard's expectation.
	Users int `json:"users"`
	// Bound is this shard's contribution to the anytime admissible
	// bound (core.BoundContribution); the router combines them with
	// core.CombineBounds for degraded-mode certificates.
	Bound              float64            `json:"bound"`
	Buckets            []core.ShardBucket `json:"buckets"`
	EffectiveTimeoutMS int64              `json:"effective_timeout_ms,omitempty"`
}

// ShardCatalogResponse is the body of GET /shard/catalog?dataset=X.
type ShardCatalogResponse struct {
	Dataset string           `json:"dataset"`
	Users   int              `json:"users"`
	Items   []dataset.ItemID `json:"items"`
	Shard   ShardInfo        `json:"shard"`
}

// shardInfo returns the configured topology, defaulting to the
// degenerate single-shard view for an unsharded server.
func (s *Server) shardInfo() ShardInfo {
	if s.cfg.Shards <= 0 {
		return ShardInfo{Shard: 0, Shards: 1}
	}
	return ShardInfo{Shard: s.cfg.Shard, Shards: s.cfg.Shards}
}

// shardSlice applies the configured user partition to a dataset
// entering the registry; a non-sharded server stores it whole.
func (s *Server) shardSlice(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if s.cfg.Shards <= 0 {
		return ds, nil
	}
	return ds.ShardUsers(s.cfg.Shard, s.cfg.Shards)
}

// handleShardBuckets serves POST /shard/buckets: the bucketize half
// of a solve, over this shard's residents. The request body is a
// FormRequest — same dataset/params/timeout envelope as /form — with
// the anytime fields ignored (degradation is the router's job; a
// shard either finishes its pass or the router times it out). The
// answer is a wire frame when Accept names wire.ContentType, as /form
// negotiates, and JSON otherwise.
func (s *Server) handleShardBuckets(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req FormRequest
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxSolveBodyBytes), &req); err != nil {
		writeSolverError(w, err)
		return
	}
	eng, name, ok := s.resolve(w, req.Dataset)
	if !ok {
		return
	}
	cfg, err := req.config(s.cfg.Workers)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	ctx, cancel, effMS, err := s.solveCtx(r, req.TimeoutMS)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	defer cancel()
	pass, err := eng.BucketizeShard(ctx, cfg)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	if wantsBinary(r) {
		wb := s.leaseWireBuf()
		defer s.releaseWireBuf(wb)
		wb.out = wire.AppendShardBuckets(wb.out[:0], &wire.ShardBuckets{
			Dataset:            name,
			Users:              pass.Users,
			Bound:              pass.Bound,
			EffectiveTimeoutMS: effMS,
			Buckets:            pass.Buckets,
		})
		writeShardFrame(w, wb.out)
		return
	}
	writeJSON(w, http.StatusOK, ShardBucketsResponse{
		Dataset:            name,
		Users:              pass.Users,
		Bound:              pass.Bound,
		Buckets:            pass.Buckets,
		EffectiveTimeoutMS: effMS,
	})
}

// handleShardScores serves POST /shard/scores: one wire frame in,
// listing every probe of a finalization plan, and one frame out with
// each probe's resident count and ItemStats records — every item a
// resident rated, ascending by item ID, for a top-k probe; the listed
// items in order for a refold probe. All probes fold through one
// accumulator. Members not resident on this shard are skipped — the
// router addresses each group whole to every shard and cross-checks
// the resident counts — so only a member unknown to the *whole*
// partition surfaces, at the router, as the topology fault it is.
func (s *Server) handleShardScores(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	wb := s.leaseWireBuf()
	defer s.releaseWireBuf(wb)
	var err error
	if wb.in, err = readLimited(r.Body, wb.in[:0], maxShardBodyBytes); err != nil {
		s.writeBodyError(w, r, err)
		return
	}
	req, err := wire.ParseScoresRequest(wb.in)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	eng, _, ok := s.resolve(w, string(req.Dataset))
	if !ok {
		return
	}
	if len(req.Probes) == 0 {
		writeSolverError(w, gferr.BadConfigf("server: shard scores request carries no probes"))
		return
	}
	for i, p := range req.Probes {
		if len(p.Members) == 0 {
			writeSolverError(w, gferr.BadConfigf("server: shard scores probe %d carries no members", i))
			return
		}
	}
	ctx, cancel, _, err := s.solveCtx(r, 0)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	defer cancel()
	sc := semantics.Scorer{DS: eng.Dataset()}
	var acc semantics.StatsAcc
	out := wire.AppendScoresResponse(wb.out[:0], len(req.Probes))
	for _, p := range req.Probes {
		if err := gferr.Ctx(ctx); err != nil {
			writeSolverError(w, err)
			return
		}
		residents := sc.GroupStats(&acc, p.Members)
		if p.Items == nil {
			out = wire.AppendProbeStats(out, residents, acc.Rated())
			for i := range acc.Rated() {
				out = wire.AppendItemStats(out, acc.At(i))
			}
			continue
		}
		out = wire.AppendProbeStats(out, residents, len(p.Items))
		for _, it := range p.Items {
			out = wire.AppendItemStats(out, acc.Of(it))
		}
	}
	wb.out = out
	writeShardFrame(w, out)
}

// writeShardFrame writes a shard call's wire frame with its length,
// so the router reads it into one buffer of the right size.
func writeShardFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	writeFrame(w, frame)
}

// handleShardCatalog serves GET /shard/catalog?dataset=X: the full
// item catalog plus topology. The router fetches it lazily, only
// when a merged bucket needs preference-list-style padding.
func (s *Server) handleShardCatalog(w http.ResponseWriter, r *http.Request) {
	eng, name, ok := s.resolve(w, r.URL.Query().Get("dataset"))
	if !ok {
		return
	}
	ds := eng.Dataset()
	writeJSON(w, http.StatusOK, ShardCatalogResponse{
		Dataset: name,
		Users:   ds.NumUsers(),
		Items:   ds.Items(),
		Shard:   s.shardInfo(),
	})
}

// Exported thin wrappers over the package's JSON plumbing, so the
// router (internal/shard) speaks byte-identical envelopes — same
// strict decoding, same ErrorBody classification — without a copy of
// the helpers drifting out of sync.

// DecodeJSON strictly decodes JSON from r into v (unknown fields are
// errors), classifying failures with the gferr sentinels.
func DecodeJSON(r *http.Request, w http.ResponseWriter, limit int64, v any) error {
	return decodeJSON(http.MaxBytesReader(w, r.Body, limit), v)
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes the standard ErrorBody envelope.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	writeError(w, status, code, msg)
}

// WriteSolverError classifies err with the standard gferr sentinel
// mapping every server endpoint uses and writes it.
func WriteSolverError(w http.ResponseWriter, err error) { writeSolverError(w, err) }

// ToFormResponse converts a solver Result into the wire envelope,
// copying every slice out of the result (the router's results come
// from FinalizeMerged, but copying keeps the contract unconditional).
func ToFormResponse(name string, res *core.Result) *FormResponse {
	return toFormResponse(name, res, true)
}

// Config resolves the request parameters into a core.Config — the
// same parsing and validation every solve endpoint applies — so the
// router rejects a bad request before fanning it out and drives the
// merge with the identical configuration the shards bucketized under.
func (p FormParams) Config(defaultWorkers int) (core.Config, error) {
	return p.config(defaultWorkers)
}
