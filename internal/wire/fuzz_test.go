package wire

import (
	"errors"
	"testing"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/gferr"
	"groupform/internal/semantics"
)

// FuzzWireDecode drives every decoder with arbitrary bytes: none may
// panic, every rejection must wrap gferr.ErrBadConfig (so the serving
// tier classifies it 400, never 500), and any frame a decoder accepts
// must re-encode byte-identically: the codec is bijective on its
// valid set, which holds version-2 frames only.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{magic, Version, kindFormRequest, 0})
	f.Add(AppendFormRequest(nil, FormRequest{
		Dataset: []byte("main"), K: 5, L: 10,
		Semantics: semantics.LM, Aggregation: semantics.Min,
	}))
	f.Add(AppendFormRequest(nil, FormRequest{
		Dataset: []byte("main"), K: 5, L: 10,
		Semantics: semantics.AV, Aggregation: semantics.Sum,
		TimeoutMS: 25, Anytime: true, QualityTarget: 0.85,
	}))
	// A hand-built version-1 request (shorter fixed section, no
	// quality_target) seeds the version rejection.
	f.Add(v1Request())
	f.Add(AppendFormResponse(nil, &core.Result{
		Algorithm: "grd", Objective: 1.5, Buckets: 2,
		Groups: []core.Group{{
			Members: []dataset.UserID{1, 2}, Items: []dataset.ItemID{3},
			ItemScores: []float64{4}, Satisfaction: 4,
		}},
	}))
	f.Add(AppendFormResponse(nil, &core.Result{
		Algorithm: "grd", Objective: 1.5, Buckets: 2,
		Partial: &core.Partial{Bound: 3, Gap: 1.5, Completed: 2, Total: 5},
		Groups: []core.Group{{
			Members: []dataset.UserID{1, 2}, Items: []dataset.ItemID{3},
			ItemScores: []float64{4}, Satisfaction: 4,
		}},
	}))
	f.Add(AppendScoresRequest(nil, sampleScoresRequest()))
	f.Add(sampleScoresResponse())
	f.Add(AppendShardBuckets(nil, sampleShardBuckets()))
	f.Fuzz(func(t *testing.T, frame []byte) {
		if req, err := ParseFormRequest(frame); err == nil {
			if again := AppendFormRequest(nil, req); string(again) != string(frame) {
				t.Fatalf("request re-encode diverged:\n in %x\nout %x", frame, again)
			}
		} else if !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("request reject not classified: %v", err)
		}
		if res, err := ParseFormResponse(frame); err == nil {
			cr := &core.Result{Algorithm: res.Algorithm, Objective: res.Objective, Buckets: res.Buckets}
			if res.Degraded {
				cr.Partial = &core.Partial{Bound: res.Bound, Gap: res.Gap,
					Completed: res.Completed, Total: res.Total}
			}
			for _, g := range res.Groups {
				cr.Groups = append(cr.Groups, core.Group{
					Members: g.Members, Items: g.Items, ItemScores: g.ItemScores,
					Satisfaction: g.Satisfaction, Merged: g.Merged,
				})
			}
			if again := AppendFormResponse(nil, cr); string(again) != string(frame) {
				t.Fatalf("response re-encode diverged:\n in %x\nout %x", frame, again)
			}
		} else if !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("response reject not classified: %v", err)
		}
		if req, err := ParseScoresRequest(frame); err == nil {
			if again := AppendScoresRequest(nil, req); string(again) != string(frame) {
				t.Fatalf("scores request re-encode diverged:\n in %x\nout %x", frame, again)
			}
		} else if !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("scores request reject not classified: %v", err)
		}
		if parts, err := ParseScoresResponse(frame); err == nil {
			if again := encodeScores(parts); string(again) != string(frame) {
				t.Fatalf("scores response re-encode diverged:\n in %x\nout %x", frame, again)
			}
		} else if !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("scores response reject not classified: %v", err)
		}
		if b, err := ParseShardBuckets(frame); err == nil {
			if again := AppendShardBuckets(nil, b); string(again) != string(frame) {
				t.Fatalf("buckets re-encode diverged:\n in %x\nout %x", frame, again)
			}
		} else if !errors.Is(err, gferr.ErrBadConfig) {
			t.Fatalf("buckets reject not classified: %v", err)
		}
	})
}
