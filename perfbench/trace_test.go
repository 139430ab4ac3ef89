package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		// Two parallel children overlapping on [20, 30], a third that
		// starts before its parent's end and runs past it, and a
		// grandchild that must not count against the root.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 40},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "a.inner", Start: 12, End: 18},
		{ID: 5, Parent: -1, Name: "request", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	// Root: 100 minus the union [10,40] + [90,100] = 100 - 40.
	want := []int64{60, 14, 20, 30, 6, 10}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], w)
		}
	}
	s, total := layerTotals(spans)
	if s["request"] != 70 || total["request"] != 110 || total["a"] != 20 {
		t.Errorf("layerTotals = %v, %v", s, total)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 7)
	child := tr.begin("core.bucketize", root, 7)
	tr.end(child)
	start := time.Now()
	tr.record("client.body", root, 7, start, start.Add(time.Millisecond))
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Parent != root || spans[0].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}
