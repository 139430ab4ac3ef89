package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"

	"groupform/internal/core"
	"groupform/internal/dataset"
	"groupform/internal/server"
	"groupform/internal/synth"
)

// datasetName is the registry name every daemon serves the catalog
// under; it appears in every request and response body.
const datasetName = "main"

// workload is one closed-loop traffic mix. Why each exists, and which
// layers it exercises, is in README.md.
type workload struct {
	name    string
	catalog string // "sparse" or "clustered"
	l       int    // group budget L on every request
	conns   int    // closed-loop connections
	// workers is the "workers" field every request carries; 0 keeps
	// the daemon default (serial solves).
	workers int
	// shards > 0 puts groupform-router in front of that many
	// groupformd -shard i/S daemons.
	shards int
	// writes is the number of upsert slots mixed into every block of
	// len(configs) reads (ingest only), and compactAfter the daemon's
	// -compact-after threshold in rated upserts.
	writes       int
	compactAfter int
	// tail is the fixed percentile form_tail_ms reports. Of p90, p95
	// and p99, p90 held steadiest over two sets of ten seeds once the
	// host turned noisy; it leaves over a hundred samples beyond it on
	// every workload, ten times minBeyond.
	tail float64
	// procs is every daemon's GOMAXPROCS. A lone daemon gets the two
	// vCPUs of the machine the benchmark was calibrated on; the four
	// routed daemons get one each, since with two apiece their
	// schedulers spin against each other on two vCPUs, which swung the
	// routed figures by a quarter from run to run. Fixed either way,
	// so a larger host does not change the configuration measured.
	procs int
}

var workloads = []workload{
	{name: "form", catalog: "sparse", l: 10, conns: 2, tail: 0.9, procs: 2},
	{name: "solo", catalog: "clustered", l: 50, conns: 1, workers: 2, tail: 0.9, procs: 2},
	{name: "ingest", catalog: "sparse", l: 10, conns: 2, writes: 6, compactAfter: 1024, tail: 0.9, procs: 2},
	{name: "routed", catalog: "clustered", l: 50, conns: 2, shards: 3, tail: 0.9, procs: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Seed streams: the catalog, the request sequence and the upsert
// batches each draw from their own generator derived from --seed, so
// changing how one is drawn leaves the others unchanged.
const (
	streamCatalog = iota + 1
	streamSequence
	streamBatches
)

// subSeed derives stream's seed from the run seed (splitmix64).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// catalogShapeSeed fixes the structure of both catalogs: they are the
// catalogs of the repository's BenchmarkEngineForm. Different
// generator seeds give the clustered catalog very different bucket
// structures (LM-MAX at L=50 has 13 to 87 buckets, so finalization
// switches branch), which would make runs on different seeds measure
// different workloads; --seed instead relabels the users.
const catalogShapeSeed = 3

// generateCatalog builds the workload's 10k-user x 1k-item catalog
// with integer 1-5 ratings, its users relabeled by a permutation drawn
// from seed.
func generateCatalog(kind string, seed int64) (*dataset.Dataset, error) {
	var ds *dataset.Dataset
	var err error
	switch kind {
	case "sparse":
		ds, err = synth.YahooLike(10_000, 1_000, catalogShapeSeed)
	case "clustered":
		ds, err = synth.Generate(synth.Config{
			Users: 10_000, Items: 1_000, Clusters: 200,
			RatingsPerUser: 60, OrderCorrelation: 0.9, Seed: catalogShapeSeed,
		})
	default:
		err = fmt.Errorf("unknown catalog %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return relabelUsers(ds, seed)
}

// relabelUsers gives the users of ds a seeded permutation of their
// IDs: the same catalog up to who is who, so bucket structure and
// solve costs stay put while member lists, shard slices and every
// answer's bytes change with the seed.
func relabelUsers(ds *dataset.Dataset, seed int64) (*dataset.Dataset, error) {
	users := ds.Users()
	perm := rand.New(rand.NewSource(seed)).Perm(len(users))
	rows := make(map[dataset.UserID][]dataset.Entry, len(users))
	for i, u := range users {
		rows[users[perm[i]]] = ds.UserRatings(u)
	}
	return dataset.FromUserEntries(ds.Scale(), rows)
}

// writeCatalog writes ds to path in the binary format and returns the
// file's SHA-256.
func writeCatalog(path string, ds *dataset.Dataset) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	bw := bufio.NewWriter(f)
	if err := dataset.WriteBinary(io.MultiWriter(bw, h), ds); err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// formConfig is one distinct request shape of a workload.
type formConfig struct {
	params server.FormParams
	body   []byte      // the JSON /form request body
	oracle core.Config // the same request as a serial core.Config
}

// configs enumerates {lm, av} x {min, max, sum} x k in 2..5 for w.
func configs(w workload) ([]formConfig, error) {
	var out []formConfig
	for _, sem := range []string{"lm", "av"} {
		for _, agg := range []string{"min", "max", "sum"} {
			for k := 2; k <= 5; k++ {
				p := server.FormParams{K: k, L: w.l, Semantics: sem, Aggregation: agg, Workers: w.workers}
				body, err := json.Marshal(server.FormRequest{Dataset: datasetName, FormParams: p})
				if err != nil {
					return nil, err
				}
				serial := p
				serial.Workers = 0
				cfg, err := serial.Config(0)
				if err != nil {
					return nil, err
				}
				out = append(out, formConfig{params: p, body: body, oracle: cfg})
			}
		}
	}
	return out, nil
}

// expectedBody is the exact /form response body for cfg over ds: the
// one-shot solver, the server's response envelope, and the server's
// compact JSON plus newline.
func expectedBody(ctx context.Context, ds *dataset.Dataset, cfg core.Config) ([]byte, error) {
	res, err := core.Form(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(server.ToFormResponse(datasetName, res))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func expectedBodies(ctx context.Context, ds *dataset.Dataset, cfgs []formConfig) ([][]byte, error) {
	out := make([][]byte, len(cfgs))
	for i, c := range cfgs {
		b, err := expectedBody(ctx, ds, c.oracle)
		if err != nil {
			return nil, fmt.Errorf("expected body for %s: %w", c.body, err)
		}
		out[i] = b
	}
	return out, nil
}

// writeSlot marks an upsert in a sequence; other slots index configs.
const writeSlot = -1

// makeSequence draws the request sequence: blocks that each hold
// every config once, in a seeded random order, with w.writes upsert
// slots at random positions. Whole blocks keep the config mix exactly
// uniform over any prefix of whole blocks.
func makeSequence(w workload, nconfigs, blocks int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	block := nconfigs + w.writes
	seq := make([]int, 0, blocks*block)
	for b := 0; b < blocks; b++ {
		slots := make([]int, 0, block)
		for c := 0; c < nconfigs; c++ {
			slots = append(slots, c)
		}
		for i := 0; i < w.writes; i++ {
			slots = append(slots, writeSlot)
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		seq = append(seq, slots...)
	}
	return seq
}

// sequenceFingerprint hashes the request bodies of seq in order
// (writes as their batch bodies, consumed in order), so two runs
// replay the same bytes exactly when their fingerprints match.
func sequenceFingerprint(seq []int, cfgs []formConfig, batches [][]byte) string {
	h := sha256.New()
	next := 0
	for _, s := range seq {
		if s == writeSlot {
			if next < len(batches) {
				h.Write(batches[next])
			}
			next++
			continue
		}
		h.Write(cfgs[s].body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
