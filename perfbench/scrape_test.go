package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"groupform/internal/metrics"
)

// exposition renders one histogram and one counter the way the
// daemons' GET /metrics does.
func exposition(h *metrics.Histogram, requests int64) string {
	var b strings.Builder
	metrics.WriteHistogram(&b, "groupform_request_duration_seconds", `endpoint="form"`, h.Snapshot())
	metrics.WriteHistogram(&b, "groupform_request_duration_seconds", `endpoint="upsert"`, metrics.HistSnapshot{})
	metrics.WriteCounter(&b, "groupform_requests_total", `endpoint="shard_scores"`, requests)
	metrics.WriteCounter(&b, "groupform_shed_total", "", 0)
	return b.String()
}

func TestMetricsDeltas(t *testing.T) {
	var h metrics.Histogram
	h.Observe(5 * time.Millisecond)
	before := exposition(&h, 7)
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	after := exposition(&h, 19)

	d, err := histogramDelta(before, after, "groupform_request_duration_seconds", `endpoint="form"`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != 2 || math.Abs(d.MeanMS()-3) > 1e-9 {
		t.Errorf("form delta = %+v (mean %v ms), want 2 observations averaging 3 ms", d, d.MeanMS())
	}
	if sum := d.add(d); sum.Count != 4 || math.Abs(sum.MeanMS()-3) > 1e-9 {
		t.Errorf("summed delta = %+v", sum)
	}
	empty, err := histogramDelta(before, after, "groupform_request_duration_seconds", `endpoint="upsert"`)
	if err != nil || empty.Count != 0 || empty.MeanMS() != 0 {
		t.Errorf("untouched histogram delta = %+v, %v", empty, err)
	}
	if _, err := histogramDelta(after, before, "groupform_request_duration_seconds", `endpoint="form"`); err == nil {
		t.Error("a histogram going backwards was accepted")
	}
	if _, err := histogramDelta(before, after, "groupform_request_duration_seconds", `endpoint="solve"`); err == nil {
		t.Error("a missing histogram was accepted")
	}

	n, err := counterDelta(before, after, "groupform_requests_total", `endpoint="shard_scores"`)
	if err != nil || n != 12 {
		t.Errorf("counter delta = %v, %v; want 12", n, err)
	}
	if v, err := sampleValue(after, "groupform_shed_total", ""); err != nil || v != 0 {
		t.Errorf("unlabeled sample = %v, %v", v, err)
	}
	if _, err := sampleValue(after, "groupform_requests_total", `endpoint="form"`); err == nil {
		t.Error("a missing sample was accepted")
	}
}
