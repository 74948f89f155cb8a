package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"wise/internal/kernels"
	"wise/internal/resilience"
)

// SchemaVersion is the BENCH_*.json schema this tool writes and reads. It
// bumps only when the Report shape changes incompatibly; the comparator
// refuses cross-version comparisons (exit 2 in the CLI) instead of
// mis-reading old trajectory points.
const SchemaVersion = 1

// ErrSchema marks a BENCH file whose schema version this tool cannot read.
var ErrSchema = errors.New("unsupported BENCH schema version")

// Env is the environment block of a report: everything about the host that
// legitimately moves the numbers. Two reports are comparable in spirit when
// their Env matches; the comparator prints both either way.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Kernels names the SpMV kernels that produced the numbers: "avx2"
	// for the vector kernels, "go" for the portable loops (kernels.Path).
	// Reports from before it was recorded read "".
	Kernels string `json:"kernels,omitempty"`
}

// CurrentEnv captures the running process's environment block.
func CurrentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernels:    kernels.Path(),
	}
}

// Report is one suite run: the preset and seed that determine the benchmark
// list, the environment block, and one Result per benchmark. Persisted as
// BENCH_<n>.json (see BENCHMARKS.md for the trajectory contract).
type Report struct {
	Schema    int      `json:"schema"`
	Preset    string   `json:"preset"`
	Seed      int64    `json:"seed"`
	TimeScale float64  `json:"time_scale"`
	TakenAt   string   `json:"taken_at"` // RFC3339; informational, never compared
	Env       Env      `json:"env"`
	Results   []Result `json:"results"`
}

// stamp fills the informational timestamp. Wall-clock never feeds anything
// but this display field.
func (r *Report) stamp() {
	r.TakenAt = time.Now().UTC().Format(time.RFC3339)
}

// Find returns the result with the given benchmark name, or nil.
func (r *Report) Find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// WriteFile atomically persists the report as indented JSON (temp + fsync +
// rename via internal/resilience, so a crash never leaves a truncated
// trajectory point).
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding report: %w", err)
	}
	if err := resilience.AtomicWriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}

// ReadReport loads and validates a BENCH_*.json file. A schema-version
// mismatch returns an error wrapping ErrSchema that names the file, which
// the CLI maps to exit 2.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading %s: %w", path, err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema version %d: %w (this tool reads version %d)",
			path, r.Schema, ErrSchema, SchemaVersion)
	}
	if len(r.Results) == 0 {
		return nil, fmt.Errorf("bench: %s: no results in report", path)
	}
	return &r, nil
}

// String renders the report as an aligned text table, grouped in result
// order (the suite already emits groups contiguously).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== bench suite %s (seed %d, schema %d, go %s, %s/%s, %d CPU, GOMAXPROCS %d, kernels %s)\n",
		r.Preset, r.Seed, r.Schema, r.Env.GoVersion, r.Env.GOOS, r.Env.GOARCH, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.Kernels)
	fmt.Fprintf(&b, "%-58s %6s %12s %12s %12s %10s\n", "benchmark", "runs", "min", "median", "p95", "allocs/op")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-58s %6d %12s %12s %12s %10.1f\n",
			res.Name, res.Runs,
			fmtNs(res.NsMin), fmtNs(res.NsMedian), fmtNs(res.NsP95), res.AllocsPerOp)
	}
	return b.String()
}

// fmtNs renders a nanosecond quantity as a rounded duration.
func fmtNs(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}

// Groups returns the distinct result groups in first-appearance order.
func (r *Report) Groups() []string {
	seen := make(map[string]bool, 8)
	out := make([]string, 0, 8)
	for _, res := range r.Results {
		if !seen[res.Group] {
			seen[res.Group] = true
			out = append(out, res.Group)
		}
	}
	return out
}

// GroupMedianSeconds sums the median time of every benchmark per group —
// the per-stage cost table EXPERIMENTS.md derives from a suite run.
func (r *Report) GroupMedianSeconds() map[string]float64 {
	out := make(map[string]float64, 8)
	for _, res := range r.Results {
		out[res.Group] += res.NsMedian / 1e9
	}
	return out
}

// sortedResultNames returns all benchmark names, sorted — the shape
// fingerprint used by determinism tests and the comparator's matching.
func sortedResultNames(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	sort.Strings(out)
	return out
}
