// Package groupform is a Go implementation of recommendation-aware
// group formation, reproducing "From Group Recommendations to Group
// Formation" (Roy, Lakshmanan, Liu; SIGMOD 2015).
//
// Given a population of users with explicit item ratings, a group
// recommendation semantics (Least Misery or Aggregate Voting), a list
// length k and a group budget l, the library partitions the users
// into at most l groups so that the summed satisfaction of the groups
// with their recommended top-k item lists is (approximately)
// maximized. The problem is NP-hard; the greedy algorithms here run
// in O(nk + l log n) and carry absolute-error guarantees under LM.
//
// # Quick start
//
//	ds, err := groupform.LoadCSV(file, groupform.DefaultScale)
//	...
//	eng, err := groupform.NewEngine(ds)
//	...
//	res, err := eng.Form(ctx, groupform.Config{
//		K: 5, L: 10,
//		Semantics:   groupform.LM,
//		Aggregation: groupform.Min,
//	})
//	for _, g := range res.Groups {
//		fmt.Println(g.Members, g.Items, g.Satisfaction)
//	}
//
// The Engine caches the per-dataset preprocessing between calls; for
// one-shot solves, or to run any other algorithm, go through the
// registry instead:
//
//	s, err := groupform.NewSolver("ls", groupform.WithSeed(7),
//		groupform.WithBudget(2*time.Second))
//	res, err := s.Solve(ctx, ds, cfg)
//
// groupform.Solvers() lists the registered algorithms; every solver
// honors context cancellation (errors wrap groupform.ErrCanceled) and
// classifies failures with the ErrBadConfig / ErrTooLarge sentinels.
//
// # Parallelism
//
// Setting Config.Workers to N >= 2 runs the parallel parts of the
// formation pipeline — preference lists, the finalization of bucket
// groups and pieces, and the merged group's forward top-k — on a pool
// of N workers (-1 means all CPUs); bucketizing is one serial pass at
// every worker count. The result is byte-identical to the serial path
// for every worker count — unconditionally under LM, and under AV for
// exactly-representable weighted ratings (any dyadic scale, including
// the usual 1-5 stars; see core.Config's Workers field for the one
// last-ulp caveat on non-dyadic AV data) — so Workers moves the wall
// clock, not the groups. LSOptions.Workers likewise fans local-search
// restarts out. See docs/ARCHITECTURE.md for where each worker pool
// runs and the determinism argument.
//
// Beyond the greedy algorithms the registry serves the paper's
// clustering baselines ("baseline-kendall", "baseline-kmeans",
// "baseline-clara") and optimal reference solvers ("exact" and "bb"
// for small instances, "ls" as a scalable proxy, "ip" for the
// Appendix-A integer programs at k=1). The package also exposes
// collaborative-filtering predictors to densify sparse ratings, and
// synthetic dataset generators mirroring the paper's evaluation data.
package groupform

import (
	"io"

	"groupform/internal/cf"
	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/eval"
	"groupform/internal/ilp"
	"groupform/internal/opt"
	"groupform/internal/semantics"
	"groupform/internal/stats"
	"groupform/internal/synth"
)

// Core data types, re-exported from the internal packages so that
// values flow freely between the facade and the internals.
type (
	// UserID identifies a user.
	UserID = dataset.UserID
	// ItemID identifies an item.
	ItemID = dataset.ItemID
	// Scale bounds rating values (rmin, rmax).
	Scale = dataset.Scale
	// Rating is a (user, item, value) triple.
	Rating = dataset.Rating
	// Entry is an (item, value) pair owned by some user.
	Entry = dataset.Entry
	// Dataset is an immutable sparse rating matrix.
	Dataset = dataset.Dataset
	// Builder accumulates ratings into a Dataset.
	Builder = dataset.Builder
	// UpsertResult summarizes one Dataset.Upsert batch.
	UpsertResult = dataset.UpsertResult
	// OverlayStats describes a dataset's pending delta overlay.
	OverlayStats = dataset.OverlayStats

	// Semantics selects LM or AV group scoring.
	Semantics = semantics.Semantics
	// Aggregation selects Max/Min/Sum/weighted satisfaction.
	Aggregation = semantics.Aggregation
	// Scorer evaluates group item scores and top-k lists.
	Scorer = semantics.Scorer

	// Config parameterizes a formation run (K, L, semantics,
	// aggregation, missing-rating policy, worker count).
	Config = core.Config
	// Group is a formed group with its recommended list.
	Group = core.Group
	// Result is a formation outcome: groups plus objective.
	Result = core.Result

	// LSOptions tunes the local-search optimizer.
	LSOptions = opt.LSOptions
	// BBOptions bounds the branch-and-bound optimizer.
	BBOptions = opt.BBOptions
	// IPOptions bounds the integer-programming solver.
	IPOptions = ilp.Options

	// Predictor estimates missing ratings.
	Predictor = cf.Predictor
	// MFConfig tunes the matrix-factorization predictor.
	MFConfig = cf.MFConfig

	// SynthConfig parameterizes synthetic dataset generation.
	SynthConfig = synth.Config

	// FivePoint is a min/Q1/median/Q3/max summary.
	FivePoint = stats.FivePoint
)

// Semantics and aggregation constants.
const (
	// LM is the Least Misery semantics (Definition 1).
	LM = semantics.LM
	// AV is the Aggregate Voting semantics (Definition 2).
	AV = semantics.AV

	// Max scores a list by its best item.
	Max = semantics.Max
	// Min scores a list by its k-th item.
	Min = semantics.Min
	// Sum scores a list by the sum over its items.
	Sum = semantics.Sum
	// WeightedSumPos discounts positions by 1/(pos+1) (Section 6).
	WeightedSumPos = semantics.WeightedSumPos
	// WeightedSumLog discounts positions by 1/log2(pos+2).
	WeightedSumLog = semantics.WeightedSumLog
)

// DefaultScale is the 1-5 rating scale of the paper's datasets.
var DefaultScale = dataset.DefaultScale

// NewBuilder returns a rating builder enforcing the scale.
func NewBuilder(scale Scale) *Builder { return dataset.NewBuilder(scale) }

// FromDense builds a complete matrix dataset from rows[user][item].
func FromDense(scale Scale, rows [][]float64) (*Dataset, error) {
	return dataset.FromDense(scale, rows)
}

// FromRatings builds a dataset from rating triples.
func FromRatings(scale Scale, rs []Rating) (*Dataset, error) {
	return dataset.FromRatings(scale, rs)
}

// LoadMovieLens parses the MovieLens "user::item::rating::ts" format.
func LoadMovieLens(r io.Reader, scale Scale) (*Dataset, error) {
	return dataset.LoadMovieLens(r, scale)
}

// LoadCSV parses "user,item,rating" rows (optional header).
func LoadCSV(r io.Reader, scale Scale) (*Dataset, error) {
	return dataset.LoadCSV(r, scale)
}

// Load reads a dataset from r, auto-detecting the container: streams
// starting with the binary magic load through ReadBinary, anything
// else parses as CSV against the scale.
func Load(r io.Reader, scale Scale) (*Dataset, error) { return dataset.Load(r, scale) }

// WriteCSV writes the dataset as CSV, the inverse of LoadCSV.
func WriteCSV(w io.Writer, ds *Dataset) error { return dataset.WriteCSV(w, ds) }

// WriteBinary writes the dataset in the compact binary format: the
// CSR storage arrays serialized directly, so loading is a handful of
// bulk reads — an order of magnitude faster than CSV at scalability
// sizes.
func WriteBinary(w io.Writer, ds *Dataset) error { return dataset.WriteBinary(w, ds) }

// ReadBinary loads a dataset written by WriteBinary (malformed input
// errors wrap ErrBadConfig).
func ReadBinary(r io.Reader) (*Dataset, error) { return dataset.ReadBinary(r) }

// NewUserKNN trains a user-based kNN rating predictor.
func NewUserKNN(ds *Dataset, k int) (Predictor, error) { return cf.NewUserKNN(ds, k) }

// NewItemKNN trains an item-based kNN rating predictor.
func NewItemKNN(ds *Dataset, k int) (Predictor, error) { return cf.NewItemKNN(ds, k) }

// NewMF trains a biased matrix-factorization predictor with SGD.
func NewMF(ds *Dataset, cfg MFConfig) (Predictor, error) { return cf.NewMF(ds, cfg) }

// NewSlopeOne trains a weighted Slope One predictor.
func NewSlopeOne(ds *Dataset) (Predictor, error) { return cf.NewSlopeOne(ds) }

// CrossValidate runs k-fold cross-validation of a predictor trainer.
func CrossValidate(ds *Dataset, folds int, seed int64, train func(*Dataset) (Predictor, error)) (cf.CVResult, error) {
	return cf.CrossValidate(ds, folds, seed, train)
}

// Densify completes a sparse dataset with clamped predictions — the
// paper's collaborative-filtering pre-processing.
func Densify(ds *Dataset, p Predictor) (*Dataset, error) { return cf.Densify(ds, p) }

// DensifyQuantized is Densify with predictions rounded to the nearest
// multiple of step, keeping the completed matrix on the discrete
// rating lattice the greedy bucketization relies on.
func DensifyQuantized(ds *Dataset, p Predictor, step float64) (*Dataset, error) {
	return cf.DensifyQuantized(ds, p, step)
}

// Generate produces a synthetic clustered rating dataset.
func Generate(cfg SynthConfig) (*Dataset, error) { return synth.Generate(cfg) }

// YahooLike generates a Yahoo!-Music-like synthetic dataset.
func YahooLike(users, items int, seed int64) (*Dataset, error) {
	return synth.YahooLike(users, items, seed)
}

// MovieLensLike generates a MovieLens-like synthetic dataset.
func MovieLensLike(users, items int, seed int64) (*Dataset, error) {
	return synth.MovieLensLike(users, items, seed)
}

// AvgGroupSatisfaction is the paper's per-group average satisfaction
// metric over the recommended top-k lists.
func AvgGroupSatisfaction(res *Result) (float64, error) {
	return eval.AvgGroupSatisfaction(res)
}

// AvgGroupSatisfactionPerMember is the per-member variant used by the
// paper's Figure 3 (bounded by k*rmax under AV semantics).
func AvgGroupSatisfactionPerMember(res *Result) (float64, error) {
	return eval.AvgGroupSatisfactionPerMember(res)
}

// GroupSizeSummary returns the 5-point summary of group sizes
// (Table 4's statistic).
func GroupSizeSummary(res *Result) (FivePoint, error) { return eval.SizeSummary(res) }

// PerUserSatisfaction maps every grouped user to their individual
// satisfaction with their group's recommended list.
func PerUserSatisfaction(ds *Dataset, res *Result, missing float64) (map[UserID]float64, error) {
	return eval.PerUserSatisfaction(ds, res, missing)
}

// MeanNDCG is the Section 6 user-level weighted satisfaction metric.
func MeanNDCG(ds *Dataset, res *Result, missing float64) (float64, error) {
	return eval.MeanNDCG(ds, res, missing)
}
