package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"groupform/internal/server"
)

// newClient returns the load generator's HTTP client: keep-alive, at
// most conns connections per daemon, no compression, no proxy.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// post sends body to url and returns the status and the whole
// response body, read into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// loopState is the request sequence every connection of a run draws
// from, in order; a traced run's chunks continue where the previous
// chunk stopped.
type loopState struct {
	seq    []int
	cursor atomic.Int64

	// writeMu serializes upserts so batches land in sequence order:
	// fresh user IDs then always arrive ascending, which keeps every
	// batch on the overlay fast path.
	writeMu sync.Mutex
	written int // batches acknowledged; guarded by writeMu
}

// sample is one request of the timed phase.
type sample struct {
	end   time.Duration // completion time since the chunk started
	lat   time.Duration
	write bool
	ok    bool
}

// chunk is the outcome of one closed-loop interval.
type chunk struct {
	samples  []sample
	elapsed  time.Duration // start to the last completion
	failures []string      // the first few failures, for the report
}

// closedLoop runs w.conns connections for d: each sends its next
// request only when the previous one completed. With tr set, every
// request is recorded as a client span with its phases as children.
func (b *bench) closedLoop(cl *cluster, st *loopState, d time.Duration, tr *tracer) chunk {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, b.w.conns)
	fails := make([][]string, b.w.conns)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := st.cursor.Add(1) - 1
				slot := st.seq[i%int64(len(st.seq))]
				var s sample
				var err error
				if slot == writeSlot {
					s, err = b.write(cl, st, &buf, int32(i), tr)
				} else {
					s, err = b.read(cl, slot, &buf, int32(i), tr)
				}
				s.end = time.Since(start)
				if err != nil && len(fails[c]) < 5 {
					fails[c] = append(fails[c], err.Error())
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var out chunk
	for c := range per {
		out.samples = append(out.samples, per[c]...)
		out.failures = append(out.failures, fails[c]...)
		for _, s := range per[c] {
			out.elapsed = max(out.elapsed, s.end)
		}
	}
	return out
}

// read sends config slot's /form request and checks the answer.
func (b *bench) read(cl *cluster, slot int, buf *bytes.Buffer, req int32, tr *tracer) (sample, error) {
	s := sample{}
	t0 := time.Now()
	resp, err := cl.client.Post(cl.url+"/form", "application/json", bytes.NewReader(b.cfgs[slot].body))
	if err != nil {
		s.lat = time.Since(t0)
		return s, err
	}
	t1 := time.Now()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	s.lat = t2.Sub(t0)
	if err == nil {
		err = b.checkRead(slot, resp.StatusCode, buf.Bytes())
	}
	s.ok = err == nil
	if tr != nil {
		root := tr.record("client.form", -1, req, t0, time.Now())
		tr.record("client.headers", root, req, t0, t1)
		tr.record("client.body", root, req, t1, t2)
	}
	return s, err
}

// checkRead is the workload's answer check. Read-only workloads must
// return the exact expected bytes; ingest answers move with every
// upsert, so during the run they must be a well-formed answer for the
// requested algorithm (the final state is byte-checked afterwards).
func (b *bench) checkRead(slot, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("/form %s: status %d: %s", b.cfgs[slot].body, status, clip(body))
	}
	if b.w.writes == 0 {
		if !bytes.Equal(body, b.expect[slot]) {
			return fmt.Errorf("/form %s: answer differs from the in-process oracle", b.cfgs[slot].body)
		}
		return nil
	}
	if !bytes.HasPrefix(body, b.prefix[slot]) || !json.Valid(body) {
		return fmt.Errorf("/form %s: malformed answer %s", b.cfgs[slot].body, clip(body))
	}
	return nil
}

// write sends the next upsert batch in sequence order.
func (b *bench) write(cl *cluster, st *loopState, buf *bytes.Buffer, req int32, tr *tracer) (sample, error) {
	s := sample{write: true}
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	j := st.written
	if j >= len(b.bodies) {
		return s, fmt.Errorf("upsert batches exhausted after %d", j)
	}
	t0 := time.Now()
	status, err := post(cl.client, cl.url+"/datasets/"+datasetName+"/ratings", b.bodies[j], buf)
	t1 := time.Now()
	s.lat = t1.Sub(t0)
	if tr != nil {
		tr.record("client.upsert", -1, req, t0, t1)
	}
	if err != nil {
		return s, err
	}
	var ur server.UpsertResponse
	switch {
	case status != http.StatusOK:
		err = fmt.Errorf("upsert batch %d: status %d: %s", j, status, clip(buf.Bytes()))
	case json.Unmarshal(buf.Bytes(), &ur) != nil:
		err = fmt.Errorf("upsert batch %d: malformed answer %s", j, clip(buf.Bytes()))
	case ur.Applied != len(b.batches[j]) || ur.Rebuilt:
		err = fmt.Errorf("upsert batch %d: applied %d of %d (rebuilt %v)", j, ur.Applied, len(b.batches[j]), ur.Rebuilt)
	default:
		st.written++
		s.ok = true
	}
	return s, err
}

// clip shortens a body for an error message.
func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
