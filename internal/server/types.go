package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"

	"groupform/internal/cliutil"
	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
)

// FormParams is the solver-facing half of a formation request: the
// fields that map onto core.Config. Semantics and aggregation use the
// CLI vocabulary ("lm"/"av", "max"/"min"/"sum"/"wsum-pos"/"wsum-log")
// so a request body reads like a groupform command line.
type FormParams struct {
	K           int     `json:"k"`
	L           int     `json:"l"`
	Semantics   string  `json:"semantics"`
	Aggregation string  `json:"agg"`
	Missing     float64 `json:"missing,omitempty"`
	// Workers overrides the server's default formation worker count
	// for this request (0 keeps the server default; negative means
	// all CPUs). Positive values are clamped to the machine's CPU
	// count — a client cannot fan one request out wider than the
	// hardware. Serial requests ride the zero-alloc scratch path;
	// parallel fan-outs allocate their own escaping memory.
	Workers int `json:"workers,omitempty"`
	// Anytime opts into graceful degradation: when the deadline (or a
	// client disconnect) cuts the solve short but a feasible grouping
	// was already built, the response is 200 with degraded:true and a
	// quality certificate instead of 499. Without it, cancellation
	// always surfaces as 499.
	Anytime bool `json:"anytime,omitempty"`
	// QualityTarget, in (0, 1], stops an anytime solve early once its
	// admissible bound proves the incumbent objective is at least
	// target * bound. Requires Anytime; 0 disables.
	QualityTarget float64 `json:"quality_target,omitempty"`
}

// config materializes the params as a core.Config. Vocabulary errors
// wrap gferr.ErrBadConfig; range validation against the dataset
// happens inside the solve (core.Config.Validate).
func (p FormParams) config(defaultWorkers int) (core.Config, error) {
	cfg := core.Config{K: p.K, L: p.L, Missing: p.Missing,
		Workers: requestWorkers(p.Workers, defaultWorkers),
		Anytime: p.Anytime, QualityTarget: p.QualityTarget}
	var err error
	if cfg.Semantics, err = cliutil.ParseSemantics(p.Semantics); err != nil {
		return core.Config{}, gferr.BadConfigf("server: %v", err)
	}
	if cfg.Aggregation, err = cliutil.ParseAggregation(p.Aggregation); err != nil {
		return core.Config{}, gferr.BadConfigf("server: %v", err)
	}
	return cfg, nil
}

// requestWorkers is the worker rule of both request encodings: 0
// keeps the server default, a negative count (all CPUs) passes
// through, and positive counts clamp to the hardware.
//
//gfvet:zeroalloc
func requestWorkers(requested, defaultWorkers int) int {
	workers := defaultWorkers
	if requested != 0 {
		workers = requested
	}
	// Clamp the fan-out to the hardware: worker counts beyond the CPU
	// count only add fan-out overhead (results are identical for every
	// count), and an unbounded client value would let one request
	// spawn per-user goroutines — the pile-up the inflight semaphore
	// exists to prevent.
	if m := runtime.GOMAXPROCS(0); workers > m {
		workers = m
	}
	return workers
}

// FormRequest is the body of POST /form.
type FormRequest struct {
	// Dataset names the registry entry to solve against. Empty is
	// allowed when exactly one dataset is loaded.
	Dataset string `json:"dataset,omitempty"`
	// TimeoutMS bounds the solve's wall-clock time; expiry returns
	// the canceled error body (HTTP 499). 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	FormParams
}

// BatchRequest is the body of POST /form/batch: one dataset, one
// deadline, many parameter sets solved back-to-back on a single
// pooled scratch so the per-request lease cost amortizes.
type BatchRequest struct {
	Dataset   string       `json:"dataset,omitempty"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
	Requests  []FormParams `json:"requests"`
}

// SolveRequest is the body of POST /solve: any registry algorithm on
// a named dataset. The algorithm may also come from the ?algo= query
// parameter, which takes precedence over the body field.
type SolveRequest struct {
	Dataset   string `json:"dataset,omitempty"`
	Algo      string `json:"algo,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	FormParams
}

// GroupJSON is one formed group in a response.
type GroupJSON struct {
	Members      []dataset.UserID `json:"members"`
	Items        []dataset.ItemID `json:"items"`
	ItemScores   []float64        `json:"item_scores"`
	Satisfaction float64          `json:"satisfaction"`
	Merged       bool             `json:"merged,omitempty"`
}

// FormResponse is the body of a successful /form or /solve response.
// The degraded fields appear only on anytime responses whose solve
// was cut short: the result is a feasible best-so-far grouping whose
// objective is provably within Gap of the admissible upper bound
// Bound (Completed of Total solver progress units finished).
type FormResponse struct {
	Dataset   string      `json:"dataset"`
	Algorithm string      `json:"algorithm"`
	Objective float64     `json:"objective"`
	Buckets   int         `json:"buckets"`
	Groups    []GroupJSON `json:"groups"`
	Degraded  bool        `json:"degraded,omitempty"`
	Bound     float64     `json:"bound,omitempty"`
	Gap       float64     `json:"gap,omitempty"`
	Completed int         `json:"completed,omitempty"`
	Total     int         `json:"total,omitempty"`
	// EffectiveTimeoutMS is the per-solve deadline actually applied,
	// in milliseconds, present only when the requested timeout_ms
	// exceeded the operator ceiling and was clamped down to it.
	EffectiveTimeoutMS int64 `json:"effective_timeout_ms,omitempty"`
}

// BatchItem is one outcome in a batch response: exactly one of Result
// and Error is set, so a partially failing batch still returns every
// independent success.
type BatchItem struct {
	Result *FormResponse `json:"result,omitempty"`
	Error  *ErrorBody    `json:"error,omitempty"`
}

// BatchResponse is the body of POST /form/batch.
type BatchResponse struct {
	Dataset string      `json:"dataset"`
	Results []BatchItem `json:"results"`
	// EffectiveTimeoutMS mirrors FormResponse.EffectiveTimeoutMS: set
	// only when the shared batch deadline was clamped to the ceiling.
	EffectiveTimeoutMS int64 `json:"effective_timeout_ms,omitempty"`
}

// UploadResponse is the body of a successful POST /datasets/{name}.
type UploadResponse struct {
	Dataset  string `json:"dataset"`
	Users    int    `json:"users"`
	Items    int    `json:"items"`
	Ratings  int    `json:"ratings"`
	Replaced bool   `json:"replaced"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status   string   `json:"status"`
	Datasets []string `json:"datasets"`
	Inflight int64    `json:"inflight"`
	// Shard is the server's position in the user partition, present
	// only on shard-role servers (Config.Shards > 0). The router's
	// health probe cross-checks it against its own topology.
	Shard *ShardInfo `json:"shard,omitempty"`
}

// DatasetInfo describes one registry entry in GET /datasets.
type DatasetInfo struct {
	Users   int `json:"users"`
	Items   int `json:"items"`
	Ratings int `json:"ratings"`
}

// ErrorBody is the JSON error envelope every non-2xx response
// carries. Code is the stable machine-readable classification; Error
// is the human-readable detail.
type ErrorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// The stable error codes, one per HTTP failure class.
const (
	CodeBadConfig  = "bad_config"         // 400: invalid request or configuration
	CodeNotFound   = "not_found"          // 404: unknown dataset or route
	CodeBadMethod  = "method_not_allowed" // 405: known route, wrong HTTP method
	CodeTooLarge   = "too_large"          // 413: instance or upload beyond limits
	CodeCanceled   = "canceled"           // 499: client disconnect or deadline expiry
	CodeOverloaded = "overloaded"         // 503: -max-inflight saturated
	CodeInternal   = "internal"           // 500: unclassified solver failure
)

// StatusClientClosedRequest is the nginx-convention status for a
// solve stopped by cancellation (client disconnect or timeout_ms
// expiry); net/http has no name for 499.
const StatusClientClosedRequest = 499

// errorStatus maps a solver error to its HTTP status and stable code.
// Cancellation is checked first: it is the only class that can race
// another failure and the client-visible truth is that the solve
// stopped early.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, gferr.ErrCanceled):
		return StatusClientClosedRequest, CodeCanceled
	case errors.Is(err, gferr.ErrTooLarge):
		return http.StatusRequestEntityTooLarge, CodeTooLarge
	case errors.Is(err, gferr.ErrBadConfig):
		return http.StatusBadRequest, CodeBadConfig
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// decodeJSON strictly decodes one JSON document into v: unknown
// fields, type mismatches and trailing garbage all wrap
// gferr.ErrBadConfig, so the fuzz target can assert every rejection
// is classified. A body refused by an http.MaxBytesReader wraps
// gferr.ErrTooLarge instead (-> 413, like oversized uploads).
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return classifyDecodeErr(err)
	}
	// Reject trailing non-whitespace so "{}{}" is not silently
	// half-read. The size cap can also trip here (a valid document
	// followed by padding past the limit), so classify that read
	// error the same way.
	switch err := dec.Decode(new(json.RawMessage)); {
	case err == io.EOF:
		return nil
	case isMaxBytes(err):
		return classifyDecodeErr(err)
	default:
		return gferr.BadConfigf("server: request body holds more than one JSON document")
	}
}

// classifyDecodeErr wraps a decoder failure: bodies refused by an
// http.MaxBytesReader are ErrTooLarge (-> 413), everything else is
// ErrBadConfig (-> 400).
func classifyDecodeErr(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return gferr.TooLargef("server: request body exceeds %d bytes", mbe.Limit)
	}
	return gferr.BadConfigf("server: decode request: %v", err)
}

func isMaxBytes(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// toGroups converts formed groups to their JSON shape. With copy
// false the slices alias the Result (valid until the scratch's next
// use — the single-solve path encodes before releasing); with copy
// true everything is duplicated so batch items survive the next
// FormInto on the same scratch.
func toGroups(gs []core.Group, copySlices bool) []GroupJSON {
	out := make([]GroupJSON, len(gs))
	for i, g := range gs {
		members, items, scores := g.Members, g.Items, g.ItemScores
		if copySlices {
			members = append([]dataset.UserID(nil), members...)
			items = append([]dataset.ItemID(nil), items...)
			scores = append([]float64(nil), scores...)
		}
		out[i] = GroupJSON{
			Members:      members,
			Items:        items,
			ItemScores:   scores,
			Satisfaction: g.Satisfaction,
			Merged:       g.Merged,
		}
	}
	return out
}

// toFormResponse converts a solver Result for the named dataset.
func toFormResponse(name string, res *core.Result, copySlices bool) *FormResponse {
	fr := &FormResponse{
		Dataset:   name,
		Algorithm: res.Algorithm,
		Objective: res.Objective,
		Buckets:   res.Buckets,
		Groups:    toGroups(res.Groups, copySlices),
	}
	if p := res.Partial; p != nil {
		fr.Degraded = true
		fr.Bound = p.Bound
		fr.Gap = p.Gap
		fr.Completed = p.Completed
		fr.Total = p.Total
	}
	return fr
}

// validDatasetName bounds uploaded dataset names to something that
// stays unambiguous in a path segment and a log line.
func validDatasetName(name string) error {
	if name == "" || len(name) > 128 {
		return gferr.BadConfigf("server: dataset name must be 1-128 characters")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return gferr.BadConfigf("server: dataset name %q may not contain '/' or whitespace", name)
	}
	return nil
}

// String renders the error body for logs.
func (e ErrorBody) String() string { return fmt.Sprintf("%s: %s", e.Code, e.Error) }
