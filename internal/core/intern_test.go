package core

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"groupform/internal/semantics"
	"groupform/internal/synth"
)

// TestInternTableResetsPastCap: a long-lived Scratch fed datasets whose
// bucket keys never repeat interns new keys on every run, so only the
// maxInternedKeys reset bounds its table. Stale keys stand in for those
// of many superseded catalogs; once they push the table past the cap,
// the next run rebuilds it from that run's keys alone and forms the
// same result as a fresh scratch.
func TestInternTableResetsPastCap(t *testing.T) {
	ds, err := synth.YahooLike(2000, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 3, L: 10, Semantics: semantics.LM, Aggregation: semantics.Min}
	ctx := context.Background()
	want, err := Form(ctx, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	if _, err := FormInto(ctx, ds, cfg, nil, s); err != nil {
		t.Fatal(err)
	}
	runKeys := len(s.keys)
	for len(s.keys) <= maxInternedKeys {
		key := "stale-" + strconv.Itoa(len(s.keys))
		s.intern[key] = int32(len(s.keys))
		s.keys = append(s.keys, key)
		s.keyToBucket = append(s.keyToBucket, -1)
	}
	got, err := FormInto(ctx, ds, cfg, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.keys) != runKeys || len(s.intern) != runKeys {
		t.Fatalf("table past the cap kept %d keys (%d mapped), want the run's %d", len(s.keys), len(s.intern), runKeys)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("run after the reset differs from a fresh scratch's")
	}
}
