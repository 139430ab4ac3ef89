package main

import (
	"encoding/json"
	"math/rand"

	"groupform/internal/dataset"
	"groupform/internal/server"
)

// Upsert batch shape: reRatings re-ratings of existing (user, item)
// pairs per batch, plus one fresh user with freshItems ratings in
// every freshEvery-th batch.
const (
	reRatings  = 8
	freshEvery = 4
	freshItems = 4
)

// makeBatches draws n upsert batches against ds. Every (user, item)
// key appears at most once across all batches, so the final catalog
// is the same whatever order the batches land in; fresh user IDs
// ascend past every existing ID, so each batch stays on the overlay
// fast path when the batches are applied in order.
func makeBatches(ds *dataset.Dataset, n int, seed int64) [][]dataset.Rating {
	rng := rand.New(rand.NewSource(seed))
	users := ds.Users()
	items := ds.Items()
	scale := ds.Scale()
	span := int(scale.Max - scale.Min)
	next := users[len(users)-1] + 1
	type key struct {
		u dataset.UserID
		i dataset.ItemID
	}
	used := make(map[key]bool)
	out := make([][]dataset.Rating, n)
	for b := range out {
		batch := make([]dataset.Rating, 0, reRatings+freshItems)
		for len(batch) < reRatings {
			u := users[rng.Intn(len(users))]
			row := ds.UserRatings(u)
			e := row[rng.Intn(len(row))]
			if used[key{u, e.Item}] {
				continue
			}
			used[key{u, e.Item}] = true
			// A different integer rating on the same scale.
			v := scale.Min + float64((int(e.Value-scale.Min)+1+rng.Intn(span))%(span+1))
			batch = append(batch, dataset.Rating{User: u, Item: e.Item, Value: v})
		}
		if b%freshEvery == freshEvery-1 {
			for _, j := range rng.Perm(len(items))[:freshItems] {
				v := scale.Min + float64(rng.Intn(span+1))
				batch = append(batch, dataset.Rating{User: next, Item: items[j], Value: v})
			}
			next++
		}
		out[b] = batch
	}
	return out
}

// batchBodies renders batches as POST /datasets/{name}/ratings bodies.
func batchBodies(batches [][]dataset.Rating) ([][]byte, error) {
	out := make([][]byte, len(batches))
	for i, b := range batches {
		req := server.UpsertRequest{Ratings: make([]server.RatingJSON, len(b))}
		for j, r := range b {
			req.Ratings[j] = server.RatingJSON{User: r.User, Item: r.Item, Value: r.Value}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

// applyBatches is the in-process replay of the first n batches over
// base: the catalog a daemon holds once it has acknowledged them.
func applyBatches(base *dataset.Dataset, batches [][]dataset.Rating) (*dataset.Dataset, error) {
	var all []dataset.Rating
	for _, b := range batches {
		all = append(all, b...)
	}
	if len(all) == 0 {
		return base, nil
	}
	ds, _, err := base.Upsert(all)
	return ds, err
}
