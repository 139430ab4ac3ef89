// Package shard is the scale-out tier of the serving stack: a
// stateless router that partitions formation work across S
// shard-role groupformd servers (each holding one contiguous user
// slice, see dataset.ShardUsers and server.Config.Shards) and
// reassembles their answers through the same merge, finalize and
// per-item scoring code the single-node solver runs
// (core.MergeShardBuckets, core.FinalizeMerged, semantics.ItemStats).
// A routed request costs each shard two calls in internal/wire
// frames: the scatter (POST /shard/buckets) and one gather carrying
// every rating probe of the finalization plan (POST /shard/scores).
//
// The parity contract is the point of the design: under LM semantics
// the routed result is byte-identical to a single node solving the
// whole dataset, for every shard count and every response arrival
// order; under AV it is identical up to floating-point summation
// reassociation — byte-identical in practice on integer rating
// scales. docs/ARCHITECTURE.md, "The scatter-gather tier", carries
// the argument; the tests in this package pin it over live HTTP.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"groupform/internal/gferr"
	"groupform/internal/server"
	"groupform/internal/wire"
)

// maxShardRespBytes caps how much of a shard response the client
// buffers: bucket lists scale with the shard's user count, so the
// cap is generous, but a misbehaving upstream still cannot make the
// router buffer without bound.
const maxShardRespBytes = 256 << 20

// Client fans requests out to the shard set. The zero value is not
// usable; build one with NewClient. Safe for concurrent use.
type Client struct {
	http    *http.Client
	shards  []string // base URLs, index == shard id
	timeout time.Duration
	retries int
}

// NewClient validates the topology: shard URLs in shard order (index
// i serves slice i of len(urls)), a per-call timeout, and how many
// times a failed call is retried. Only availability faults —
// transport errors and 5xx answers — are retried; a 4xx would fail
// identically every time.
func NewClient(urls []string, timeout time.Duration, retries int) (*Client, error) {
	if len(urls) == 0 {
		return nil, gferr.BadConfigf("shard: at least one shard URL is required")
	}
	for i, u := range urls {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, gferr.BadConfigf("shard: shard %d URL %q must be http(s)", i, u)
		}
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if retries < 0 {
		retries = 0
	}
	return &Client{
		http:    &http.Client{},
		shards:  append([]string(nil), urls...),
		timeout: timeout,
		retries: retries,
	}, nil
}

// Shards returns the shard count.
func (c *Client) Shards() int { return len(c.shards) }

// CallError is a shard's non-2xx answer with its classification
// preserved, so the router can propagate a shard's 4xx verbatim (the
// request is bad on every shard) while treating 5xx as the
// availability fault it is.
type CallError struct {
	Shard  int
	Status int
	Code   string
	Msg    string
}

func (e *CallError) Error() string {
	return fmt.Sprintf("shard %d: %d %s: %s", e.Shard, e.Status, e.Code, e.Msg)
}

// Unavailable reports whether the error counts as an availability
// fault — the class anytime requests may degrade around, and the
// only class worth retrying.
func (e *CallError) Unavailable() bool { return e.Status >= 500 }

// unreachableError wraps a transport-level failure (refused
// connection, reset, per-call timeout) — always an availability
// fault.
type unreachableError struct {
	shard int
	err   error
}

func (e *unreachableError) Error() string {
	return fmt.Sprintf("shard %d unreachable: %v", e.shard, e.err)
}
func (e *unreachableError) Unwrap() error { return e.err }

// Unavailable classifies err: true for transport faults and shard
// 5xx, false for everything else (including shard 4xx and the
// router's own context expiring).
func Unavailable(err error) bool {
	switch e := err.(type) {
	case *unreachableError:
		return true
	case *CallError:
		return e.Unavailable()
	}
	return false
}

// call runs one shard request under the retry policy: a POST of body,
// of media type bodyType, asking for the binary answer, or a GET when
// body is nil. decode reads a 200 answer; a body it rejects counts as
// a transport fault. Each attempt runs under the per-call timeout on
// top of ctx; attempts after the first happen only for availability
// faults while ctx is still live.
func (c *Client) call(ctx context.Context, shard int, path string, body []byte, bodyType string, decode func([]byte) error) error {
	var last error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return last
			}
			return gferr.Ctx(ctx)
		}
		last = c.attempt(ctx, shard, path, body, bodyType, decode)
		if last == nil || !Unavailable(last) {
			return last
		}
	}
	return last
}

func (c *Client) attempt(ctx context.Context, shard int, path string, payload []byte, bodyType string, decode func([]byte) error) error {
	cctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	method := http.MethodGet
	var body io.Reader
	if payload != nil {
		method = http.MethodPost
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(cctx, method, c.shards[shard]+path, body)
	if err != nil {
		return gferr.BadConfigf("shard: build request: %v", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", bodyType)
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// The router's own deadline expiring is a cancellation, not a
		// shard fault; only classify as unreachable when the parent
		// context is still live.
		if ctx.Err() != nil {
			return gferr.Ctx(ctx)
		}
		return &unreachableError{shard: shard, err: err}
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxShardRespBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, maxShardRespBytes))
	raw := buf.Bytes()
	if err != nil {
		if ctx.Err() != nil {
			return gferr.Ctx(ctx)
		}
		return &unreachableError{shard: shard, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		ce := &CallError{Shard: shard, Status: resp.StatusCode, Code: server.CodeInternal}
		var eb server.ErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Code != "" {
			ce.Code, ce.Msg = eb.Code, eb.Error
		} else {
			ce.Msg = string(raw)
		}
		return ce
	}
	if err := decode(raw); err != nil {
		return &unreachableError{shard: shard,
			err: fmt.Errorf("malformed response from %s: %w", path, err)}
	}
	return nil
}

// jsonInto decodes a JSON answer into out.
func jsonInto(out any) func([]byte) error {
	return func(raw []byte) error { return json.Unmarshal(raw, out) }
}

// buckets runs the scatter call: POST /shard/buckets on one shard with
// the /form request as JSON, answered as a wire frame.
func (c *Client) buckets(ctx context.Context, shard int, req server.FormRequest) (*wire.ShardBuckets, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, gferr.BadConfigf("shard: encode request: %v", err)
	}
	var out *wire.ShardBuckets
	err = c.call(ctx, shard, "/shard/buckets", body, "application/json", func(raw []byte) (err error) {
		out, err = wire.ParseShardBuckets(raw)
		return err
	})
	return out, err
}

// scores runs the gather call: POST /shard/scores on one shard with a
// scores request frame. check validates the parsed answers against the
// request.
func (c *Client) scores(ctx context.Context, shard int, frame []byte, check func([]wire.ProbeStats) error) ([]wire.ProbeStats, error) {
	var out []wire.ProbeStats
	err := c.call(ctx, shard, "/shard/scores", frame, wire.ContentType, func(raw []byte) (err error) {
		if out, err = wire.ParseScoresResponse(raw); err == nil {
			err = check(out)
		}
		return err
	})
	return out, err
}

// catalog fetches one shard's item catalog (every shard keeps the
// full catalog, so any responding shard's answer is authoritative).
func (c *Client) catalog(ctx context.Context, shard int, dataset string) (*server.ShardCatalogResponse, error) {
	var out server.ShardCatalogResponse
	path := "/shard/catalog"
	if dataset != "" {
		path += "?dataset=" + url.QueryEscape(dataset)
	}
	if err := c.call(ctx, shard, path, nil, "", jsonInto(&out)); err != nil {
		return nil, err
	}
	return &out, nil
}

// health probes one shard's /healthz.
func (c *Client) health(ctx context.Context, shard int) (*server.HealthResponse, error) {
	var out server.HealthResponse
	if err := c.call(ctx, shard, "/healthz", nil, "", jsonInto(&out)); err != nil {
		return nil, err
	}
	return &out, nil
}
