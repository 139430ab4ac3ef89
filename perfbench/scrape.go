package main

import (
	"fmt"
	"strconv"
	"strings"

	"groupform/internal/metrics"
)

// histDelta is one latency histogram's growth between two /metrics
// scrapes: the observations added and their summed duration.
type histDelta struct {
	Count  int64
	SumSec float64
}

// MeanMS is the mean observation of the delta in milliseconds, 0 when
// nothing was observed.
func (d histDelta) MeanMS() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.SumSec / float64(d.Count) * 1e3
}

func (d histDelta) add(o histDelta) histDelta {
	return histDelta{Count: d.Count + o.Count, SumSec: d.SumSec + o.SumSec}
}

// histogramDelta parses histogram name{labels} out of two scrapes and
// returns after minus before.
func histogramDelta(before, after, name, labels string) (histDelta, error) {
	b, err := metrics.ParseHistogram(before, name, labels)
	if err != nil {
		return histDelta{}, err
	}
	a, err := metrics.ParseHistogram(after, name, labels)
	if err != nil {
		return histDelta{}, err
	}
	if a.Count < b.Count {
		return histDelta{}, fmt.Errorf("metrics: %s{%s} count went backwards (%d -> %d)", name, labels, b.Count, a.Count)
	}
	return histDelta{Count: a.Count - b.Count, SumSec: a.SumSeconds - b.SumSeconds}, nil
}

// sampleValue reads the scalar sample name{labels} (labels as
// rendered, "" for none) from exposition text.
func sampleValue(text, name, labels string) (float64, error) {
	want := name
	if labels != "" {
		want += "{" + labels + "}"
	}
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(strings.TrimSpace(line), " ")
		if ok && key == want {
			return strconv.ParseFloat(val, 64)
		}
	}
	return 0, fmt.Errorf("metrics: no sample %s", want)
}

// counterDelta is sample name{labels} in after minus in before.
func counterDelta(before, after, name, labels string) (float64, error) {
	b, err := sampleValue(before, name, labels)
	if err != nil {
		return 0, err
	}
	a, err := sampleValue(after, name, labels)
	if err != nil {
		return 0, err
	}
	return a - b, nil
}
