// Package study simulates the paper's Amazon Mechanical Turk user
// study (Section 7.3). The paper collects 1-5 POI preferences from 50
// workers over the 10 most popular New York Flickr POIs, builds three
// 10-user samples (similar, dissimilar, random), forms l = 3 groups
// per sample with GRD-LM and Baseline-LM under Min and Sum
// aggregation, and has fresh workers rate their satisfaction with the
// two (anonymized) groupings.
//
// Here the Flickr log and the Turk workers are simulated: worker
// preferences come from internal/synth's archetype generator, samples
// are selected with the paper's own sim(u, u') formula, and a
// worker's reported satisfaction for a grouping is their individual
// satisfaction (mean own rating of their group's recommended list)
// plus small reporting noise. See DESIGN.md for why this substitution
// preserves the comparison's shape.
package study

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"groupform/internal/baseline"
	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/eval"
	"groupform/internal/semantics"
	"groupform/internal/stats"
	"groupform/internal/synth"

	"groupform/internal/gferr"
)

// SampleKind identifies the three Phase-1 user samples.
type SampleKind int

const (
	// Similar is the 10-user sample with the most similar rankings.
	Similar SampleKind = iota
	// Dissimilar is the sample with the smallest aggregate pairwise
	// similarity.
	Dissimilar
	// Random is sampled uniformly.
	Random
)

// String names the sample.
func (s SampleKind) String() string {
	switch s {
	case Similar:
		return "similar"
	case Dissimilar:
		return "dissimilar"
	case Random:
		return "random"
	}
	return fmt.Sprintf("SampleKind(%d)", int(s))
}

// Config parameterizes a study run.
type Config struct {
	// Workers is the Phase-1 population size; 0 means the paper's
	// 50.
	Workers int
	// SampleSize is the users per sample; 0 means the paper's 10.
	SampleSize int
	// Groups is l; 0 means the paper's 3.
	Groups int
	// RatersPerHIT is how many simulated workers rate each HIT;
	// 0 means the paper's 10.
	RatersPerHIT int
	// Seed drives generation, sampling and rater noise.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 50
	}
	if c.SampleSize == 0 {
		c.SampleSize = 10
	}
	if c.Groups == 0 {
		c.Groups = 3
	}
	if c.RatersPerHIT == 0 {
		c.RatersPerHIT = 10
	}
	return c
}

// HITResult is one cell of Figures 7(b)/7(c): mean and standard
// error of the simulated satisfaction ratings for one (sample,
// aggregation, method) combination.
type HITResult struct {
	Sample      SampleKind
	Aggregation semantics.Aggregation
	Method      string // "GRD" or "Baseline"
	MeanSat     float64
	StdErr      float64
}

// Result aggregates a full study run.
type Result struct {
	HITs []HITResult
	// PreferGRD[agg] is the fraction of raters preferring GRD over
	// the baseline under that aggregation (Figure 7(a)).
	PreferGRD map[semantics.Aggregation]float64
}

// Similarity is the paper's pairwise measure: positions are compared
// along the two users' top-k ranked lists; matching items at the same
// position contribute 1 - |sc(u,i)-sc(u',i)|/rmax, mismatches 0, and
// the sum is averaged over the k positions.
func Similarity(ds *dataset.Dataset, a, b dataset.UserID, k int) (float64, error) {
	pa, err := topList(ds, a, k)
	if err != nil {
		return 0, err
	}
	pb, err := topList(ds, b, k)
	if err != nil {
		return 0, err
	}
	rmax := ds.Scale().Max
	total := 0.0
	for j := 0; j < k; j++ {
		if pa.items[j] != pb.items[j] {
			continue
		}
		diff := pa.scores[j] - pb.scores[j]
		if diff < 0 {
			diff = -diff
		}
		total += 1 - diff/rmax
	}
	return total / float64(k), nil
}

type list struct {
	items  []dataset.ItemID
	scores []float64
}

func topList(ds *dataset.Dataset, u dataset.UserID, k int) (list, error) {
	es := ds.UserRatings(u)
	if len(es) < k {
		return list{}, gferr.BadConfigf("study: user %d has %d ratings, need %d", u, len(es), k)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Value != es[j].Value {
			return es[i].Value > es[j].Value
		}
		return es[i].Item < es[j].Item
	})
	l := list{}
	for j := 0; j < k; j++ {
		l.items = append(l.items, es[j].Item)
		l.scores = append(l.scores, es[j].Value)
	}
	return l, nil
}

// SelectSample builds one of the paper's Phase-1 samples from the
// worker population.
func SelectSample(ds *dataset.Dataset, kind SampleKind, size int, seed int64) ([]dataset.UserID, error) {
	users := ds.Users()
	if len(users) < size {
		return nil, gferr.BadConfigf("study: population %d smaller than sample %d", len(users), size)
	}
	k := ds.NumItems()
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case Random:
		perm := rng.Perm(len(users))
		out := make([]dataset.UserID, size)
		for i := 0; i < size; i++ {
			out[i] = users[perm[i]]
		}
		sortUsers(out)
		return out, nil
	case Similar, Dissimilar:
		// Greedy construction around a seed user: repeatedly add the
		// user maximizing (Similar) or minimizing (Dissimilar) the
		// aggregate similarity to the current sample.
		seedU := users[rng.Intn(len(users))]
		sample := []dataset.UserID{seedU}
		chosen := map[dataset.UserID]bool{seedU: true}
		for len(sample) < size {
			var best dataset.UserID
			bestVal := 0.0
			first := true
			for _, u := range users {
				if chosen[u] {
					continue
				}
				agg := 0.0
				for _, v := range sample {
					s, err := Similarity(ds, u, v, k)
					if err != nil {
						return nil, err
					}
					agg += s
				}
				better := agg > bestVal
				if kind == Dissimilar {
					better = agg < bestVal
				}
				if first || better {
					best, bestVal, first = u, agg, false
				}
			}
			sample = append(sample, best)
			chosen[best] = true
		}
		sortUsers(sample)
		return sample, nil
	}
	return nil, gferr.BadConfigf("study: invalid sample kind %d", int(kind))
}

func sortUsers(us []dataset.UserID) {
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
}

// Run executes the full two-phase study and returns the Figure 7
// numbers. The recommendation list length is the paper's implicit
// k = 3 for 10 POIs shared across 3 groups.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ds, err := synth.FlickrPOIs(cfg.Workers, cfg.Seed)
	if err != nil {
		return nil, err
	}
	k := 3
	res := &Result{PreferGRD: map[semantics.Aggregation]float64{}}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	prefer := map[semantics.Aggregation][2]int{} // [prefers GRD, total]

	for _, kind := range []SampleKind{Similar, Dissimilar, Random} {
		sample, err := SelectSample(ds, kind, cfg.SampleSize, cfg.Seed+int64(kind))
		if err != nil {
			return nil, err
		}
		sub := ds.SubsetUsers(sample)
		for _, agg := range []semantics.Aggregation{semantics.Min, semantics.Sum} {
			ccfg := core.Config{K: k, L: cfg.Groups, Semantics: semantics.LM, Aggregation: agg}
			grd, err := core.Form(context.Background(), sub, ccfg)
			if err != nil {
				return nil, err
			}
			base, err := baseline.Form(context.Background(), sub, baseline.Config{
				Config: ccfg, Method: baseline.KendallMedoids, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			grdSat, err := sampleSatisfactions(sub, grd)
			if err != nil {
				return nil, err
			}
			baseSat, err := sampleSatisfactions(sub, base)
			if err != nil {
				return nil, err
			}
			// The paper's HIT shows the rater every user's preference
			// ratings and both methods' groups, then asks for a 1-5
			// satisfaction score. A rater therefore judges the
			// grouping holistically — how well each group's list
			// matches the preference tables on screen — while also
			// "regarding herself as one of the individuals". We model
			// the report as a blend weighted toward the grouping's
			// normalized per-group satisfaction (the dominant visible
			// signal) with the persona's own satisfaction, plus
			// reporting noise.
			grdQ := groupingQuality(grd, agg, k)
			baseQ := groupingQuality(base, agg, k)
			var grdRatings, baseRatings []float64
			for r := 0; r < cfg.RatersPerHIT; r++ {
				persona := sample[rng.Intn(len(sample))]
				// The two methods are rated as separate HIT questions,
				// so reporting noise is independent per question —
				// which also breaks exact ties the way real raters do.
				g := clampRating(ds, 0.75*grdQ+0.25*grdSat[persona]+(rng.Float64()-0.5))
				b := clampRating(ds, 0.75*baseQ+0.25*baseSat[persona]+(rng.Float64()-0.5))
				grdRatings = append(grdRatings, g)
				baseRatings = append(baseRatings, b)
				pt := prefer[agg]
				if g > b {
					pt[0]++
				}
				pt[1]++
				prefer[agg] = pt
			}
			res.HITs = append(res.HITs,
				hit(kind, agg, "GRD", grdRatings),
				hit(kind, agg, "Baseline", baseRatings))
		}
	}
	for agg, pt := range prefer {
		if pt[1] > 0 {
			res.PreferGRD[agg] = float64(pt[0]) / float64(pt[1])
		}
	}
	return res, nil
}

func sampleSatisfactions(ds *dataset.Dataset, r *core.Result) (map[dataset.UserID]float64, error) {
	return eval.PerUserSatisfaction(ds, r, 0)
}

// groupingQuality maps a grouping's objective onto the 1-5 rating
// scale: the per-group average satisfaction, divided by k under Sum
// aggregation (whose group scores span k times the scale).
func groupingQuality(r *core.Result, agg semantics.Aggregation, k int) float64 {
	if len(r.Groups) == 0 {
		return 0
	}
	per := r.Objective / float64(len(r.Groups))
	if agg == semantics.Sum {
		per /= float64(k)
	}
	return per
}

func clampRating(ds *dataset.Dataset, v float64) float64 {
	return ds.Scale().Clamp(v)
}

func hit(kind SampleKind, agg semantics.Aggregation, method string, ratings []float64) HITResult {
	h := HITResult{Sample: kind, Aggregation: agg, Method: method}
	h.MeanSat = stats.MustMean(ratings)
	if se, err := stats.StdErr(ratings); err == nil {
		h.StdErr = se
	}
	return h
}
