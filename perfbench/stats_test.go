package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	candidates := tailCandidates
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5, ok: false},  // even p90 leaves nothing beyond
		{n: 99, ok: false}, // p90 would leave 9
		{n: 100, want: 0.9, ok: true},
		{n: 199, want: 0.9, ok: true},  // p95 leaves 9
		{n: 200, want: 0.95, ok: true}, // p95 leaves exactly 10
		{n: 999, want: 0.95, ok: true},
		{n: 1000, want: 0.99, ok: true},
		{n: 10000, want: 0.999, ok: true},
	} {
		got, ok := tailPercentile(tc.n, candidates)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", tc.n, got*100, beyond(tc.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.9: 900, 0.95: 950, 0.99: 990, 1: 1000, 0.0001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}
