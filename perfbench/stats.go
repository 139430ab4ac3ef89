package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// tailCandidates are the percentiles a run reports in its metadata,
// beside the workload's fixed form_tail_ms percentile.
var tailCandidates = []float64{0.9, 0.95, 0.99, 0.999}

// nearestRank is the 1-based nearest-rank position of the q-quantile
// among n ascending samples. The epsilon keeps q*n that should be an
// integer (0.95*1000) from rounding up a rank.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank q-quantile of ascending sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), q)-1]
}

// beyond counts the samples ranked strictly after the q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, q)
}

// tailPercentile picks, among candidate percentiles, the highest one
// that leaves at least minBeyond of n samples beyond it. ok is false
// when none does.
func tailPercentile(n int, candidates []float64) (q float64, ok bool) {
	for _, c := range candidates {
		if beyond(n, c) >= minBeyond && (!ok || c > q) {
			q, ok = c, true
		}
	}
	return q, ok
}

// median of xs (mean of the middle pair for even lengths); xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
