package server

// Shard-role endpoints: the scatter half of the distributed
// formation tier (see docs/ARCHITECTURE.md, "The scatter-gather
// tier"). A groupformd started with -shard i/S slices every loaded
// dataset to shard i's resident users (dataset.ShardUsers) and
// answers three extra routes the router fans out to:
//
//	POST /shard/buckets — run preference ranking + bucketizing over
//	    the resident slice and return the per-shard candidate buckets
//	    (core.BucketizeShard) plus this shard's anytime bound
//	    contribution.
//	POST /shard/scores  — return per-item partial score stats
//	    (semantics.GroupStats) over the residents of a member list,
//	    so the router can reassemble exact LM / bounded-error AV
//	    group scores without moving ratings.
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

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/semantics"
)

// maxShardBodyBytes caps /shard/scores request bodies. Unlike a
// /form request (a handful of scalars), a scores request carries a
// full member list — up to every user in the dataset — so the 1 MiB
// solve cap would refuse legitimate large groups.
const maxShardBodyBytes = 64 << 20

// ShardInfo reports a server's position in the user partition.
type ShardInfo struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
}

// ShardBucketsResponse is the body of a successful POST
// /shard/buckets.
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

// ShardScoresRequest asks for partial score stats over the residents
// of Members. With Items unset the stats cover every item any
// resident rated (canonical item-index order); with Items set the
// response aligns positionally with it (probe mode, used when the
// router refolds a bucket piece against its stored positions).
type ShardScoresRequest struct {
	Dataset   string           `json:"dataset"`
	TimeoutMS int64            `json:"timeout_ms,omitempty"`
	Members   []dataset.UserID `json:"members"`
	Items     []dataset.ItemID `json:"items,omitempty"`
}

// ShardScoresResponse is the body of a successful POST /shard/scores.
type ShardScoresResponse struct {
	Dataset string `json:"dataset"`
	// Residents counts how many of the requested members live on this
	// shard. The router requires the per-shard counts to sum to the
	// full membership — every user on exactly one shard — and treats
	// a mismatch as a topology fault, not a soft error.
	Residents int                   `json:"residents"`
	Stats     []semantics.ItemStats `json:"stats"`
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
// shard either finishes its pass or the router times it out).
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
	writeJSON(w, http.StatusOK, ShardBucketsResponse{
		Dataset:            name,
		Users:              pass.Users,
		Bound:              pass.Bound,
		Buckets:            pass.Buckets,
		EffectiveTimeoutMS: effMS,
	})
}

// handleShardScores serves POST /shard/scores. Members not resident
// on this shard are skipped — the router addresses the full
// membership to every shard and cross-checks the resident counts —
// so only a member unknown to the *whole* partition surfaces, at the
// router, as the topology fault it is.
func (s *Server) handleShardScores(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req ShardScoresRequest
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxShardBodyBytes), &req); err != nil {
		writeSolverError(w, err)
		return
	}
	eng, name, ok := s.resolve(w, req.Dataset)
	if !ok {
		return
	}
	if len(req.Members) == 0 {
		writeSolverError(w, gferr.BadConfigf("server: shard scores request carries no members"))
		return
	}
	ctx, cancel, _, err := s.solveCtx(r, req.TimeoutMS)
	if err != nil {
		writeSolverError(w, err)
		return
	}
	defer cancel()
	if err := ctx.Err(); err != nil {
		writeSolverError(w, gferr.Ctx(ctx))
		return
	}
	ds := eng.Dataset()
	residents := req.Members[:0:0]
	for _, u := range req.Members {
		if _, ok := ds.UserIdxOf(u); ok {
			residents = append(residents, u)
		}
	}
	sc := semantics.Scorer{DS: ds}
	var stats []semantics.ItemStats
	if req.Items == nil {
		stats, err = sc.GroupStats(residents)
	} else {
		stats, err = sc.GroupStatsFor(residents, req.Items)
	}
	if err != nil {
		writeSolverError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ShardScoresResponse{Dataset: name, Residents: len(residents), Stats: stats})
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
