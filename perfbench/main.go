// Command perfbench is the repository's serving benchmark. It builds
// groupformd and groupform-router from the checkout, generates seeded
// catalogs, drives one closed-loop workload over loopback sockets,
// checks every answer against the in-process solver, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer split — as
// the last line of its output, one JSON object. README.md explains
// the workloads and metrics.
//
// Usage, from the repository root:
//
//	go -C perfbench run . --workload form --seed 1 --seconds 20 --trace 0
//
// Build outputs, catalogs, run metadata and spans go under
// .bench_build/perfbench in the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"groupform/internal/dataset"
)

// genProcs is the load generator's GOMAXPROCS during the closed loop:
// its per-request work is small, and one P leaves the cores to the
// daemons it measures.
const genProcs = 1

// setupReps is how many times an untraced run spawns and warms its
// daemons; setup_s is the median.
const setupReps = 5

// buildDir holds everything the benchmark writes, relative to the
// repository root.
const buildDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: form, solo, ingest or routed")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the catalog, request sequence and upsert batches")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown --workload %q (want form, solo, ingest or routed)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace wants 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(genProcs)
	// The generator allocates per request; a larger GC target keeps its
	// collections rare next to the daemons' work.
	debug.SetGCPercent(400)

	b, err := newBench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.stopAll()
		b.cleanup()
		os.Exit(1)
	}()
	out, err := b.execute(context.Background())
	b.stopAll()
	b.cleanup()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.validate(out)
	b.report(stdout, out)
	if !out.correct {
		for _, f := range out.failures {
			fmt.Fprintln(stderr, "perfbench: check failed:", f)
		}
		return 1
	}
	return 0
}

// bench is one run: the workload, its inputs, and the processes it
// started.
type bench struct {
	o    options
	w    workload
	dur  time.Duration
	root string // repository root
	work string // root/.bench_build/perfbench
	tmp  string // this run's catalog directory, removed at exit
	bins struct{ daemon, router string }

	catalogPath string
	ds          *dataset.Dataset // the catalog as the daemons load it
	cfgs        []formConfig
	expect      [][]byte // exact /form answer per config
	prefix      [][]byte // ingest: answer prefix per config
	seq         []int
	batches     [][]dataset.Rating
	bodies      [][]byte

	meta *runMeta

	mu    sync.Mutex
	procs []*proc
}

func newBench(o options) (*bench, error) {
	w, _ := findWorkload(o.workload)
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w, dur: time.Duration(o.seconds) * time.Second, root: root, meta: newMeta(o, w)}
	b.work = filepath.Join(root, buildDir, "perfbench")
	for _, d := range []string{"bin", "runs"} {
		if err := os.MkdirAll(filepath.Join(b.work, d), 0o755); err != nil {
			return nil, err
		}
	}
	if b.tmp, err = os.MkdirTemp(b.work, "tmp-"); err != nil {
		return nil, err
	}
	b.bins.daemon = filepath.Join(b.work, "bin", "groupformd")
	b.bins.router = filepath.Join(b.work, "bin", "groupform-router")
	return b, nil
}

// findRoot locates the groupform module: the benchmark runs from its
// own directory (go -C perfbench run .), one level below it.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{filepath.Dir(wd), wd} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && modulePath(string(b)) == "groupform" {
			return dir, nil
		}
	}
	return "", errors.New("no groupform module next to the benchmark; run it from the repository root as: go -C perfbench run .")
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func (b *bench) cleanup() { os.RemoveAll(b.tmp) }

// spawn starts a server process and registers it for stopAll.
func (b *bench) spawn(name, bin string, args []string, gctrace bool) (*proc, error) {
	p, err := spawn(name, bin, args, b.w.procs, gctrace)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.procs = append(b.procs, p)
	b.mu.Unlock()
	return p, nil
}

// stopAll stops every process the run started and waits for each.
func (b *bench) stopAll() {
	b.mu.Lock()
	ps := b.procs
	b.procs = nil
	b.mu.Unlock()
	stopProcs(ps)
}

func stopProcs(ps []*proc) {
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// build compiles the commit's daemons into the build directory.
func (b *bench) build() error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(b.work, "bin")+string(filepath.Separator),
		"./cmd/groupformd", "./cmd/groupform-router")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the daemons: %v\n%s", err, out)
	}
	return nil
}

// execute runs the whole benchmark: build, inputs, measurement.
func (b *bench) execute(ctx context.Context) (*outcome, error) {
	b.meta.CPUProbeMS[0] = cpuProbe()
	b.meta.Commit = commitOf(b.root)
	var err error
	if b.meta.SourceSHA256, err = sourceFingerprint(b.root); err != nil {
		return nil, err
	}
	if err := b.build(); err != nil {
		return nil, err
	}
	if err := b.prepare(ctx); err != nil {
		return nil, err
	}
	var out *outcome
	if b.o.trace {
		out, err = b.traced(ctx)
	} else {
		out, err = b.untraced()
	}
	if err != nil {
		return nil, err
	}
	b.stopAll()
	b.meta.CPUProbeMS[1] = cpuProbe()
	if err := b.meta.write(b.runFile("meta.json")); err != nil {
		return nil, err
	}
	return out, nil
}

// runFile names a per-run output file.
func (b *bench) runFile(suffix string) string {
	trace := 0
	if b.o.trace {
		trace = 1
	}
	return filepath.Join(b.work, "runs", fmt.Sprintf("%s-seed%d-trace%d.%s", b.o.workload, b.o.seed, trace, suffix))
}

// prepare generates every input of the run from the seed.
func (b *bench) prepare(ctx context.Context) error {
	ds, err := generateCatalog(b.w.catalog, subSeed(b.o.seed, streamCatalog))
	if err != nil {
		return err
	}
	b.catalogPath = filepath.Join(b.tmp, "catalog.bin")
	if b.meta.CatalogSHA256, err = writeCatalog(b.catalogPath, ds); err != nil {
		return err
	}
	// Everything in-process works on the file the daemons load.
	if b.ds, err = loadCatalog(b.catalogPath); err != nil {
		return err
	}
	if b.cfgs, err = configs(b.w); err != nil {
		return err
	}
	if b.expect, err = expectedBodies(ctx, b.ds, b.cfgs); err != nil {
		return err
	}
	for _, e := range b.expect {
		i := strings.Index(string(e), `"objective":`)
		b.prefix = append(b.prefix, e[:i+len(`"objective":`)])
	}
	// Enough slots that no run can exhaust them: 2000 requests/s is
	// several times the fastest workload's rate.
	block := len(b.cfgs) + b.w.writes
	blocks := (b.o.seconds*2000)/block + 1
	b.seq = makeSequence(b.w, len(b.cfgs), blocks, subSeed(b.o.seed, streamSequence))
	if b.w.writes > 0 {
		b.batches = makeBatches(b.ds, blocks*b.w.writes, subSeed(b.o.seed, streamBatches))
		if b.bodies, err = batchBodies(b.batches); err != nil {
			return err
		}
	}
	b.meta.SequenceSHA256 = sequenceFingerprint(b.seq, b.cfgs, b.bodies)
	return nil
}

func loadCatalog(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.Load(f, dataset.DefaultScale)
}

// outcome is a run's verdict and metric values.
type outcome struct {
	attempted, failed int64
	correct           bool
	failures          []string
	values            map[string]float64
	lines             []string // human-readable report lines
}

func newOutcome() *outcome { return &outcome{correct: true, values: map[string]float64{}} }

// fail records a failed check.
func (o *outcome) fail(err error) {
	if err != nil {
		o.correct = false
		o.failures = append(o.failures, err.Error())
	}
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines, the metadata, and last the
// result object.
func (b *bench) report(w io.Writer, out *outcome) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%d trace=%v\n", b.o.workload, b.o.seed, b.o.seconds, b.o.trace)
	for _, l := range out.lines {
		fmt.Fprintln(w, l)
	}
	defs := endToEnd
	if b.o.trace {
		defs = perLayer
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := out.values[d.name]
		fmt.Fprintf(w, "  %-24s %12.4f %-6s (n=%d)\n", d.name, v, d.unit, b.meta.Samples[d.name])
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	if mb, err := json.Marshal(b.meta); err == nil {
		fmt.Fprintf(w, "meta: %s\n", mb)
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	if err != nil {
		panic(err) // validate leaves only finite values, the one way Marshal fails here
	}
	fmt.Fprintf(w, "%s\n", res)
}
