// Package cf implements collaborative-filtering rating predictors.
// The paper assumes sc(u, i) "denotes the rating of item i predicted
// for user u by the recommender system" — i.e. a prediction layer
// fills in the sparse explicit feedback before groups are formed.
// This package provides that layer: neighborhood models (user-kNN and
// item-kNN with cosine similarity over mean-centered ratings) and a
// biased matrix-factorization model trained with SGD, plus Densify,
// which completes a sparse dataset with predictions.
package cf

import (
	"math"
	"math/rand"
	"sort"

	"groupform/internal/dataset"

	"groupform/internal/gferr"
)

// Predictor estimates a user's rating for an item. Estimates are
// clamped to the dataset scale by callers that need valid ratings.
type Predictor interface {
	// Predict returns the estimated rating of item i by user u. It
	// falls back to progressively coarser means (user mean, item
	// mean, global mean) when the model has no signal.
	Predict(u dataset.UserID, i dataset.ItemID) float64
}

// means caches global, per-user and per-item rating means in dense
// index-space arrays — the shared fallback chain of all predictors,
// computed in one pass over the CSR rows with no map accesses.
type means struct {
	ds     *dataset.Dataset
	global float64
	user   []float64 // by dataset.UserIdx; 0 for rating-less users
	item   []float64 // by dataset.ItemIdx
}

func computeMeans(ds *dataset.Dataset) means {
	m := means{ds: ds, user: make([]float64, ds.NumUsers()), item: make([]float64, ds.NumItems())}
	itemSum := make([]float64, ds.NumItems())
	var total float64
	var count int
	for r := 0; r < ds.NumUsers(); r++ {
		cols, vals := ds.RowIdx(dataset.UserIdx(r))
		if len(vals) == 0 {
			continue
		}
		s := 0.0
		for p, j := range cols {
			s += vals[p]
			itemSum[j] += vals[p]
		}
		m.user[r] = s / float64(len(vals))
		total += s
		count += len(vals)
	}
	if count > 0 {
		m.global = total / float64(count)
	}
	for j := range m.item {
		if c := ds.ItemCountIdx(dataset.ItemIdx(j)); c > 0 {
			m.item[j] = itemSum[j] / float64(c)
		}
	}
	return m
}

// userMean returns u's mean rating; ok is false for users unknown to
// the dataset or without ratings (mirroring the historical map-miss).
func (m means) userMean(u dataset.UserID) (float64, bool) {
	r, ok := m.ds.UserIdxOf(u)
	if !ok {
		return 0, false
	}
	if cols, _ := m.ds.RowIdx(r); len(cols) == 0 {
		return 0, false
	}
	return m.user[r], true
}

// itemMean returns i's mean rating; ok is false for unknown items.
func (m means) itemMean(i dataset.ItemID) (float64, bool) {
	j, ok := m.ds.ItemIdxOf(i)
	if !ok || m.ds.ItemCountIdx(j) == 0 {
		return 0, false
	}
	return m.item[j], true
}

func (m means) fallback(u dataset.UserID, i dataset.ItemID) float64 {
	if v, ok := m.userMean(u); ok {
		return v
	}
	if v, ok := m.itemMean(i); ok {
		return v
	}
	return m.global
}

// ---------------------------------------------------------------
// User-based kNN

// UserKNN predicts with the K most similar users who rated the target
// item, weighting their mean-centered ratings by cosine similarity.
type UserKNN struct {
	ds     *dataset.Dataset
	k      int
	m      means
	sims   map[dataset.UserID][]neighbor
	raters map[dataset.ItemID][]dataset.UserID
}

type neighbor struct {
	id  dataset.UserID
	sim float64
}

// NewUserKNN trains a user-kNN model with neighborhood size k.
func NewUserKNN(ds *dataset.Dataset, k int) (*UserKNN, error) {
	if ds == nil || ds.NumRatings() == 0 {
		return nil, gferr.BadConfigf("cf: empty dataset")
	}
	if k <= 0 {
		return nil, gferr.BadConfigf("cf: k must be positive, got %d", k)
	}
	model := &UserKNN{
		ds: ds, k: k, m: computeMeans(ds),
		sims:   make(map[dataset.UserID][]neighbor, ds.NumUsers()),
		raters: make(map[dataset.ItemID][]dataset.UserID),
	}
	users := ds.Users()
	for _, u := range users {
		for _, e := range ds.UserRatings(u) {
			model.raters[e.Item] = append(model.raters[e.Item], u)
		}
	}
	// Pairwise mean-centered cosine similarity over co-rated items.
	for ai, a := range users {
		for bi, b := range users[ai+1:] {
			s := model.cosine(dataset.UserIdx(ai), dataset.UserIdx(ai+1+bi))
			if s > 0 {
				model.sims[a] = append(model.sims[a], neighbor{b, s})
				model.sims[b] = append(model.sims[b], neighbor{a, s})
			}
		}
	}
	for u := range model.sims {
		ns := model.sims[u]
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].sim != ns[j].sim {
				return ns[i].sim > ns[j].sim
			}
			return ns[i].id < ns[j].id
		})
	}
	return model, nil
}

// cosine computes mean-centered cosine similarity between the users
// at rows a and b over their co-rated items (zero when fewer than two
// co-ratings).
func (m *UserKNN) cosine(a, b dataset.UserIdx) float64 {
	ca, va := m.ds.RowIdx(a)
	cb, vb := m.ds.RowIdx(b)
	ma, _ := m.m.userMean(m.ds.UserAt(a))
	mb, _ := m.m.userMean(m.ds.UserAt(b))
	var dot, na, nb float64
	common := 0
	i, j := 0, 0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i] < cb[j]:
			i++
		case ca[i] > cb[j]:
			j++
		default:
			x, y := va[i]-ma, vb[j]-mb
			dot += x * y
			na += x * x
			nb += y * y
			common++
			i++
			j++
		}
	}
	if common < 2 || na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Predict implements Predictor.
func (m *UserKNN) Predict(u dataset.UserID, i dataset.ItemID) float64 {
	if v, ok := m.ds.Rating(u, i); ok {
		return v
	}
	var num, den float64
	used := 0
	for _, nb := range m.sims[u] {
		if used == m.k {
			break
		}
		v, ok := m.ds.Rating(nb.id, i)
		if !ok {
			continue
		}
		nm, _ := m.m.userMean(nb.id)
		num += nb.sim * (v - nm)
		den += math.Abs(nb.sim)
		used++
	}
	if den == 0 {
		return m.m.fallback(u, i)
	}
	um, _ := m.m.userMean(u)
	return um + num/den
}

// ---------------------------------------------------------------
// Item-based kNN

// ItemKNN predicts from the K most similar items the user has rated,
// with adjusted-cosine similarity (mean-centered per user).
type ItemKNN struct {
	ds   *dataset.Dataset
	k    int
	m    means
	sims map[dataset.ItemID][]itemNeighbor
}

type itemNeighbor struct {
	id  dataset.ItemID
	sim float64
}

// NewItemKNN trains an item-kNN model with neighborhood size k.
func NewItemKNN(ds *dataset.Dataset, k int) (*ItemKNN, error) {
	if ds == nil || ds.NumRatings() == 0 {
		return nil, gferr.BadConfigf("cf: empty dataset")
	}
	if k <= 0 {
		return nil, gferr.BadConfigf("cf: k must be positive, got %d", k)
	}
	model := &ItemKNN{ds: ds, k: k, m: computeMeans(ds), sims: make(map[dataset.ItemID][]itemNeighbor)}
	// Build per-item centered vectors keyed by user.
	vectors := make(map[dataset.ItemID]map[dataset.UserID]float64, ds.NumItems())
	for _, u := range ds.Users() {
		mu, _ := model.m.userMean(u)
		for _, e := range ds.UserRatings(u) {
			v := vectors[e.Item]
			if v == nil {
				v = make(map[dataset.UserID]float64)
				vectors[e.Item] = v
			}
			v[u] = e.Value - mu
		}
	}
	items := ds.Items()
	for ai, a := range items {
		va := vectors[a]
		for _, b := range items[ai+1:] {
			vb := vectors[b]
			var dot, na, nb float64
			common := 0
			for u, x := range va {
				if y, ok := vb[u]; ok {
					dot += x * y
					na += x * x
					nb += y * y
					common++
				}
			}
			if common < 2 || na == 0 || nb == 0 {
				continue
			}
			s := dot / (math.Sqrt(na) * math.Sqrt(nb))
			if s > 0 {
				model.sims[a] = append(model.sims[a], itemNeighbor{b, s})
				model.sims[b] = append(model.sims[b], itemNeighbor{a, s})
			}
		}
	}
	for it := range model.sims {
		ns := model.sims[it]
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].sim != ns[j].sim {
				return ns[i].sim > ns[j].sim
			}
			return ns[i].id < ns[j].id
		})
	}
	return model, nil
}

// Predict implements Predictor.
func (m *ItemKNN) Predict(u dataset.UserID, i dataset.ItemID) float64 {
	if v, ok := m.ds.Rating(u, i); ok {
		return v
	}
	var num, den float64
	used := 0
	for _, nb := range m.sims[i] {
		if used == m.k {
			break
		}
		v, ok := m.ds.Rating(u, nb.id)
		if !ok {
			continue
		}
		num += nb.sim * v
		den += math.Abs(nb.sim)
		used++
	}
	if den == 0 {
		return m.m.fallback(u, i)
	}
	return num / den
}

// ---------------------------------------------------------------
// Matrix factorization

// MFConfig tunes the SGD matrix-factorization trainer.
type MFConfig struct {
	// Factors is the latent dimension; 0 means 16.
	Factors int
	// Epochs is the number of SGD sweeps; 0 means 30.
	Epochs int
	// LearningRate is the SGD step; 0 means 0.01.
	LearningRate float64
	// Regularization penalizes factor and bias magnitude; 0 means
	// 0.05.
	Regularization float64
	// Seed initializes the factors.
	Seed int64
}

// MF is a biased matrix-factorization model:
// r(u,i) = mu + b_u + b_i + p_u . q_i.
type MF struct {
	ds     *dataset.Dataset
	m      means
	bu     map[dataset.UserID]float64
	bi     map[dataset.ItemID]float64
	p      map[dataset.UserID][]float64
	q      map[dataset.ItemID][]float64
	global float64
}

// NewMF trains a matrix-factorization model with SGD.
func NewMF(ds *dataset.Dataset, cfg MFConfig) (*MF, error) {
	if ds == nil || ds.NumRatings() == 0 {
		return nil, gferr.BadConfigf("cf: empty dataset")
	}
	if cfg.Factors == 0 {
		cfg.Factors = 16
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 30
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.01
	}
	if cfg.Regularization == 0 {
		cfg.Regularization = 0.05
	}
	if cfg.Factors < 0 || cfg.Epochs < 0 || cfg.LearningRate <= 0 || cfg.Regularization < 0 {
		return nil, gferr.BadConfigf("cf: invalid MF config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &MF{
		ds: ds, m: computeMeans(ds),
		bu: make(map[dataset.UserID]float64),
		bi: make(map[dataset.ItemID]float64),
		p:  make(map[dataset.UserID][]float64),
		q:  make(map[dataset.ItemID][]float64),
	}
	m.global = m.m.global
	scale := 0.1
	for _, u := range ds.Users() {
		f := make([]float64, cfg.Factors)
		for i := range f {
			f[i] = (rng.Float64() - 0.5) * scale
		}
		m.p[u] = f
	}
	for _, it := range ds.Items() {
		f := make([]float64, cfg.Factors)
		for i := range f {
			f[i] = (rng.Float64() - 0.5) * scale
		}
		m.q[it] = f
	}
	type triple struct {
		u dataset.UserID
		i dataset.ItemID
		v float64
	}
	var ratings []triple
	for _, u := range ds.Users() {
		for _, e := range ds.UserRatings(u) {
			ratings = append(ratings, triple{u, e.Item, e.Value})
		}
	}
	lr, reg := cfg.LearningRate, cfg.Regularization
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(ratings), func(i, j int) { ratings[i], ratings[j] = ratings[j], ratings[i] })
		for _, r := range ratings {
			pu, qi := m.p[r.u], m.q[r.i]
			pred := m.global + m.bu[r.u] + m.bi[r.i] + dot(pu, qi)
			err := r.v - pred
			m.bu[r.u] += lr * (err - reg*m.bu[r.u])
			m.bi[r.i] += lr * (err - reg*m.bi[r.i])
			for f := range pu {
				pf, qf := pu[f], qi[f]
				pu[f] += lr * (err*qf - reg*pf)
				qi[f] += lr * (err*pf - reg*qf)
			}
		}
	}
	return m, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Predict implements Predictor.
func (m *MF) Predict(u dataset.UserID, i dataset.ItemID) float64 {
	if v, ok := m.ds.Rating(u, i); ok {
		return v
	}
	pu, okU := m.p[u]
	qi, okI := m.q[i]
	if !okU || !okI {
		return m.m.fallback(u, i)
	}
	return m.global + m.bu[u] + m.bi[i] + dot(pu, qi)
}

// ---------------------------------------------------------------

// Densify completes ds into a dense matrix: every (user, item) pair
// missing a rating receives the predictor's clamped estimate. This is
// the paper's "standard pre-processing for collaborative filtering
// and rating prediction"; group formation then runs on the completed
// matrix. Predictions stay real-valued; see DensifyQuantized for the
// discretized variant the greedy bucketization prefers.
func Densify(ds *dataset.Dataset, p Predictor) (*dataset.Dataset, error) {
	return densify(ds, p, 0)
}

// DensifyQuantized is Densify with predictions rounded to the nearest
// multiple of step (e.g. 1 for the paper's 1-5 star scale, 0.5 for
// half stars). The paper's data model takes ratings from "a discrete
// set of positive integers"; keeping predictions on that lattice is
// what lets users share exact top-k sequences and scores, the
// matching structure the GRD algorithms' intermediate groups rely on.
// Raw real-valued predictions make almost every user's key unique and
// degrade GRD to singleton buckets plus one merged group.
func DensifyQuantized(ds *dataset.Dataset, p Predictor, step float64) (*dataset.Dataset, error) {
	if step < 0 {
		return nil, gferr.BadConfigf("cf: negative quantization step %v", step)
	}
	return densify(ds, p, step)
}

func densify(ds *dataset.Dataset, p Predictor, step float64) (*dataset.Dataset, error) {
	if ds == nil || ds.NumRatings() == 0 {
		return nil, gferr.BadConfigf("cf: empty dataset")
	}
	scale := ds.Scale()
	perUser := make(map[dataset.UserID][]dataset.Entry, ds.NumUsers())
	items := ds.Items()
	for _, u := range ds.Users() {
		rated := ds.UserRatings(u)
		entries := make([]dataset.Entry, 0, len(items))
		j := 0
		for _, it := range items {
			for j < len(rated) && rated[j].Item < it {
				j++
			}
			if j < len(rated) && rated[j].Item == it {
				entries = append(entries, rated[j])
				continue
			}
			v := p.Predict(u, it)
			if step > 0 {
				v = math.Round(v/step) * step
			}
			entries = append(entries, dataset.Entry{Item: it, Value: scale.Clamp(v)})
		}
		perUser[u] = entries
	}
	return dataset.FromUserEntries(scale, perUser)
}

// RMSE evaluates a predictor against held-out ratings.
func RMSE(p Predictor, heldOut []dataset.Rating) (float64, error) {
	if len(heldOut) == 0 {
		return 0, gferr.BadConfigf("cf: empty held-out set")
	}
	var se float64
	for _, r := range heldOut {
		d := p.Predict(r.User, r.Item) - r.Value
		se += d * d
	}
	return math.Sqrt(se / float64(len(heldOut))), nil
}
