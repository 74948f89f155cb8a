// Package bench turns the package micro-benchmarks into BENCH_*.json
// reports and judges two reports against each other (BENCHMARKS.md).
//
// The benchmarks themselves are ordinary testing.B functions in the
// packages they time; `go test -bench` output is the only way they are
// run. Parse converts that text into a schema-versioned Report, one row per
// benchmark with every sample kept in input order, and Compare pairs the
// samples of two reports round by round, so a verdict rests on the spread
// of per-round ratios instead of on two medians taken at different times.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"wise/internal/resilience"
)

// SchemaVersion is the BENCH_*.json schema this tool writes and reads. It
// bumps only when the Report shape changes incompatibly; the comparator
// refuses other versions (exit 2 in the CLI) instead of mis-reading old
// trajectory points. Schema 1 was the removed preset suite's shape.
const SchemaVersion = 2

// ErrSchema marks a BENCH file whose schema version this tool cannot read.
var ErrSchema = errors.New("unsupported BENCH schema version")

// Env is the environment block of a report: the host facts that move the
// numbers. The comparator prints both blocks when they differ.
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Kernels names the SpMV kernels that produced the numbers: "avx2"
	// for the vector kernels, "go" for the portable loops (kernels.Path).
	Kernels string `json:"kernels,omitempty"`
}

// Result is one benchmark's row. Ns holds every sample's ns/op in input
// order, so sample i of two reports taken by alternating rounds belong to
// the same round. Units holds the median of every other unit the
// benchmark reported: B/op and allocs/op from ReportAllocs, MB/s from
// SetBytes, and custom units such as spmv/op or us/product.
type Result struct {
	Pkg      string             `json:"pkg"`
	Name     string             `json:"name"`
	Ns       []float64          `json:"ns"`
	NsMin    float64            `json:"ns_min"`
	NsMedian float64            `json:"ns_median"`
	NsP95    float64            `json:"ns_p95"`
	Units    map[string]float64 `json:"units,omitempty"`
}

// key identifies a row across reports.
func (r *Result) key() string { return r.Pkg + " " + r.Name }

// Report is one converted `go test -bench` run, persisted as
// BENCH_<n>.json.
type Report struct {
	Schema  int      `json:"schema"`
	Env     Env      `json:"env"`
	Results []Result `json:"results"`
}

// WriteFile atomically persists the report as indented JSON, so a crash
// never leaves a truncated trajectory point.
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

// String renders the report as an aligned text table in row order.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %d benchmarks (schema %d, %s/%s, %s, GOMAXPROCS %d, kernels %s)\n",
		len(r.Results), r.Schema, r.Env.GOOS, r.Env.GOARCH, r.Env.CPU, r.Env.GOMAXPROCS, r.Env.Kernels)
	fmt.Fprintf(&b, "%-64s %4s %12s %12s %12s\n", "benchmark", "n", "min", "median", "p95")
	for i := range r.Results {
		res := &r.Results[i]
		fmt.Fprintf(&b, "%-64s %4d %12s %12s %12s\n",
			res.key(), len(res.Ns), fmtNs(res.NsMin), fmtNs(res.NsMedian), fmtNs(res.NsP95))
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
