package main

import (
	"sort"
	"time"

	"wise/internal/stats"
)

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (its default "exclusive"
// method), which is how the spreads the bounds in BENCHMARK.json are
// checked against are defined. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q(1), q(3)
}

func median(values []float64) float64 { return stats.Percentile(values, 50) }

// spread is the distance between the quartiles as a share of the median;
// 0 for fewer than two values.
func spread(values []float64) float64 {
	m := median(values)
	if len(values) < 2 || m <= 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / m
}

// phaseStats are the load generator's numbers for one measured phase.
type phaseStats struct {
	attempted, failed int
	metrics           map[string]float64
	serviceP50        map[opKind]float64 // milliseconds, successful ops
	errors            []string
}

// summarize turns a measured phase's samples into its end-to-end metrics.
// unsent open-loop ops count as attempted and failed; latency percentiles
// and throughput count successful ops only.
func summarize(samples []sample, unsent int) phaseStats {
	var lat, lag []time.Duration
	service := map[opKind][]time.Duration{}
	var last time.Duration
	failed, degraded := unsent, 0
	for _, s := range samples {
		lag = append(lag, s.lag)
		if s.err != nil {
			failed++
			continue
		}
		if s.degraded {
			degraded++
		}
		lat = append(lat, s.latency)
		service[s.kind] = append(service[s.kind], s.service)
		last = max(last, s.done)
	}
	attempted := len(samples) + unsent
	ps := phaseStats{attempted: attempted, failed: failed, serviceP50: map[opKind]float64{},
		errors: firstErrors(samples, 5)}
	latMS := ms(lat)
	throughput := 0.0
	if last > 0 {
		throughput = float64(len(lat)) / last.Seconds()
	}
	ps.metrics = map[string]float64{
		"latency_p50_ms":         stats.Percentile(latMS, 50),
		"latency_p90_ms":         stats.Percentile(latMS, 90),
		"loadgen.latency_p99_ms": stats.Percentile(latMS, 99),
		"throughput_rps":         throughput,
		"loadgen.lag_ms_p90":     stats.Percentile(ms(lag), 90),
		"loadgen.ops_attempted":  float64(attempted),
		"loadgen.degraded_share": float64(degraded) / float64(max(attempted, 1)),
	}
	for k, d := range service {
		ps.serviceP50[k] = stats.Percentile(ms(d), 50)
	}
	return ps
}
