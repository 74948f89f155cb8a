package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the run
// length, the workload names, and the metrics it must print, with their
// units, directions and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// metricDecl declares one metric. Bound, for end-to-end metrics, is the
// share of the baseline median by which the metric may worsen before a
// change counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot returns the nearest directory at or above dir holding
// BENCHMARK.json.
func findRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no BENCHMARK.json in this directory or above; pass -root")
		}
		dir = parent
	}
}

// loadSpec reads BENCHMARK.json and checks that it names this program's
// workloads in order.
func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchmark: parsing BENCHMARK.json: %w", err)
	}
	ws := workloads()
	if len(s.Workloads) != len(ws) {
		return nil, fmt.Errorf("benchmark: BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		if s.Workloads[i].Name != w.name {
			return nil, fmt.Errorf("benchmark: BENCHMARK.json workload %d is %q, want %q", i, s.Workloads[i].Name, w.name)
		}
	}
	return &s, nil
}

// metrics returns the metrics a run prints: the end-to-end ones, or with
// trace the per-layer ones.
func (s *benchSpec) metrics(trace bool) []metricDecl {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}
