package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(values, n=4).
	cases := []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1.5, 2.25, 9, 4}, 1.875, 7},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.values); !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := spread([]float64{4}); s > 0 {
		t.Errorf("spread of one value = %v, want 0", s)
	}
}

func TestSummarizeSharesAndPercentiles(t *testing.T) {
	var samples []sample
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Millisecond
		samples = append(samples, sample{result: result{kind: opPredict, degraded: i == 4},
			latency: d, service: d, done: d})
	}
	samples = append(samples, sample{result: result{kind: opPredict, err: errors.New("status 429")},
		latency: time.Second, done: 20 * time.Millisecond})
	ps := summarize(samples, 2)
	if ps.attempted != 13 || ps.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 13 and 3 (one error, two unsent)", ps.attempted, ps.failed)
	}
	want := map[string]float64{
		"latency_p50_ms":         5.5, // failures carry no latency
		"latency_p90_ms":         9.1,
		"loadgen.latency_p99_ms": 9.91,
		"throughput_rps":         1000, // 10 answered by the last answer at 10 ms
		"loadgen.degraded_share": 1.0 / 13,
		"loadgen.ops_attempted":  13,
	}
	for name, v := range want {
		if !near(ps.metrics[name], v) {
			t.Errorf("%s = %v, want %v", name, ps.metrics[name], v)
		}
	}
	if !near(ps.serviceP50[opPredict], 5.5) {
		t.Errorf("predict service p50 = %v ms, want 5.5", ps.serviceP50[opPredict])
	}
	if len(ps.errors) != 1 {
		t.Errorf("errors = %v, want the one failure", ps.errors)
	}
}
