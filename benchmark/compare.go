package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// runSet is the file -o writes and -compare reads: every run of one
// invocation with the host it ran on.
type runSet struct {
	Env  hostEnv       `json:"env"`
	Runs []*runOutcome `json:"runs"`
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchmark: parsing %s: %w", path, err)
	}
	return &s, nil
}

// values returns one metric's values over the untraced runs of a workload.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v)
		}
	}
	return out
}

// compareRow is one workload × end-to-end metric of a comparison.
type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	Change   float64 `json:"change"` // worsening of b against a as a share of a; negative is better
	SpreadA  float64 `json:"spread_a"`
	SpreadB  float64 `json:"spread_b"`
	Verdict  string  `json:"verdict"`
}

// compareSets compares b against a on every workload × end-to-end metric
// the two share. A metric is worse or better when its median moved by more
// than its bound and same otherwise. It is unresolved when either side's
// run-to-run spread exceeds the bound, unless every run of b beats every
// run of a, which is better.
func compareSets(spec *benchSpec, a, b *runSet) []compareRow {
	var rows []compareRow
	for _, w := range workloads() {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.name, m.Name), b.values(w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := compareRow{Workload: w.name, Metric: m.Name, MedianA: median(va), MedianB: median(vb),
				SpreadA: spread(va), SpreadB: spread(vb)}
			worse := func(x, y float64) float64 { // how much worse y is than x, as a share of x
				if m.Better == "higher" {
					return (x - y) / x
				}
				return (y - x) / x
			}
			r.Change = worse(r.MedianA, r.MedianB)
			allBetter := true
			for _, x := range va {
				for _, y := range vb {
					allBetter = allBetter && worse(x, y) < 0
				}
			}
			switch {
			case r.SpreadA > m.Bound || r.SpreadB > m.Bound:
				r.Verdict = "unresolved"
				if allBetter {
					r.Verdict = "better"
				}
			case r.Change > m.Bound:
				r.Verdict = "worse"
			case r.Change < -m.Bound:
				r.Verdict = "better"
			default:
				r.Verdict = "same"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// formatCompare renders the rows as a table.
func formatCompare(rows []compareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-19s %-19s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread a", "spread b", "verdict")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-19s %-19s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%  %s\n", r.Workload, r.Metric,
			r.MedianA, r.MedianB, 100*r.Change, 100*r.SpreadA, 100*r.SpreadB, r.Verdict)
	}
	return b.String()
}
