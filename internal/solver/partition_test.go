package solver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"groupform/internal/core"
	"groupform/internal/semantics"
	"groupform/internal/synth"
)

// TestEnginePartitionFillRace: eight goroutines replay the serving
// benchmark's 24 configurations ({lm, av} × {min, max, sum} × K 2..5)
// three rounds each on one Engine, each from its own offset, so fills
// race hits and bucketizing passes on every slot (run under -race in
// CI). Every answer equals core.Form's bytes, and each of the 16
// partitions (4 kinds × K 2..5) is filled exactly once.
func TestEnginePartitionFillRace(t *testing.T) {
	ds, err := synth.YahooLike(2000, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var cfgs []core.Config
	var want [][]byte
	for _, sem := range []semantics.Semantics{semantics.LM, semantics.AV} {
		for _, agg := range []semantics.Aggregation{semantics.Min, semantics.Max, semantics.Sum} {
			for k := 2; k <= 5; k++ {
				cfg := core.Config{K: k, L: 10, Semantics: sem, Aggregation: agg}
				res, err := core.Form(ctx, ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfgs = append(cfgs, cfg)
				want = append(want, resultBytes(t, res))
			}
		}
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := core.NewScratch()
			for r := 0; r < rounds; r++ {
				for i := range cfgs {
					c := (i + 3*g) % len(cfgs)
					var got *core.Result
					var err error
					if (g+r)%2 == 0 {
						got, err = eng.FormInto(ctx, cfgs[c], s)
					} else {
						got, err = eng.Form(ctx, cfgs[c])
					}
					var b []byte
					if err == nil {
						b, err = json.Marshal(got)
					}
					if err == nil && !bytes.Equal(b, want[c]) {
						err = fmt.Errorf("goroutine %d round %d: %s K=%d differs from core.Form", g, r, cfgs[c].AlgorithmName(), cfgs[c].K)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := eng.Stats()
	if st.PartitionBuilds != 16 {
		t.Errorf("PartitionBuilds = %d, want 16 (4 kinds × K 2..5)", st.PartitionBuilds)
	}
	if total := uint64(goroutines * rounds * len(cfgs)); st.PartitionHits == 0 || st.PartitionBuilds+st.PartitionHits > total {
		t.Errorf("PartitionHits = %d over %d requests", st.PartitionHits, total)
	}
}
