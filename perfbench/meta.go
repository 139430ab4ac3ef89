package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runMeta is everything needed to tell two runs apart: what was
// built, on what machine, from which inputs, and every value a
// reported metric was derived from. It is written next to the spans
// and printed as the second-to-last line of a run.
type runMeta struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`

	Commit        string `json:"commit"`
	SourceSHA256  string `json:"source_sha256"`
	GoVersion     string `json:"go_version"`
	NProc         int    `json:"nproc"`
	GenGOMAXPROCS int    `json:"generator_gomaxprocs"`
	DaemonProcs   int    `json:"daemon_gomaxprocs"`

	CatalogSHA256  string `json:"catalog_sha256"`
	SequenceSHA256 string `json:"sequence_sha256"`

	// CPUProbeMS times cpuProbe's fixed workloads (compute, memory)
	// before and after the run, so machine drift shows apart from the
	// program.
	CPUProbeMS [2][2]float64 `json:"cpu_probe_ms"`

	// Samples counts the observations behind each metric; Values keeps
	// the raw values a median or mean was taken over.
	Samples map[string]int       `json:"samples"`
	Values  map[string][]float64 `json:"values"`
	Notes   []string             `json:"notes,omitempty"`
}

// cpuProbe times two fixed single-threaded workloads and returns
// their times in ms: SHA-256 over 32 MiB (compute), and a dependent
// random walk over a 64 MiB table (memory latency, which neighbours
// on a shared host disturb more than compute).
func cpuProbe() [2]float64 {
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	start := time.Now()
	h := sha256.New()
	for i := 0; i < 4; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	sha := time.Since(start)

	next := make([]uint32, 16<<20)
	for i := range next {
		next[i] = uint32((uint64(i)*2654435761 + 12345) % uint64(len(next)))
	}
	start = time.Now()
	j := uint32(0)
	for i := 0; i < 1<<20; i++ {
		j = next[j]
	}
	mem := time.Since(start)
	sink = j
	return [2]float64{float64(sha.Microseconds()) / 1e3, float64(mem.Microseconds()) / 1e3}
}

// sink keeps the probe's walk from being optimized away.
var sink uint32

// commitOf is the checkout's git revision, or "unknown" when root is
// not a git work tree (the source fingerprint identifies the code
// either way). git is not asked outside one: it would search the
// parent directories.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceFingerprint hashes the path and contents of every .go file
// and go.mod of the module the daemons are built from, skipping the
// build directory and this benchmark.
func sourceFingerprint(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == buildDir || rel == "perfbench" || strings.HasPrefix(d.Name(), ".git") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || d.Name() == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "", err
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func newMeta(o options, w workload) *runMeta {
	return &runMeta{
		Workload:      o.workload,
		Seed:          o.seed,
		Seconds:       o.seconds,
		Trace:         o.trace,
		GoVersion:     runtime.Version(),
		NProc:         runtime.NumCPU(),
		GenGOMAXPROCS: genProcs,
		DaemonProcs:   w.procs,
		Samples:       map[string]int{},
		Values:        map[string][]float64{},
	}
}

func (m *runMeta) write(path string) error {
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
