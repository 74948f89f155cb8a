package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDecl{
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.1},
		{Name: "throughput_rps", Better: "higher", Bound: 0.1},
	}}
	set := func(scale float64, latency ...float64) *runSet {
		s := &runSet{}
		for _, l := range latency {
			s.Runs = append(s.Runs, &runOutcome{Workload: "cold-predict",
				Metrics: map[string]float64{"latency_p50_ms": l * scale, "throughput_rps": 100 / scale}})
		}
		// A traced run never enters a comparison.
		s.Runs = append(s.Runs, &runOutcome{Workload: "cold-predict", Trace: true,
			Metrics: map[string]float64{"latency_p50_ms": 1e9, "throughput_rps": 1e-9}})
		return s
	}
	base := set(1, 10, 10.2, 9.8, 10.1, 9.9)
	cases := []struct {
		name string
		b    *runSet
		want string
	}{
		{"same", set(1.03, 10, 10.2, 9.8, 10.1, 9.9), "same"},
		{"worse", set(1.2, 10, 10.2, 9.8, 10.1, 9.9), "worse"},
		{"better", set(0.8, 10, 10.2, 9.8, 10.1, 9.9), "better"},
		{"noisy", set(1.2, 5, 15, 8, 12, 20), "unresolved"},
	}
	for _, c := range cases {
		rows := compareSets(spec, base, c.b)
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want one per metric", c.name, len(rows))
		}
		if got := rows[0].Verdict; got != c.want {
			t.Errorf("%s: latency verdict %s, want %s (%+v)", c.name, got, c.want, rows[0])
		}
	}
	// Throughput is higher-is-better: dividing it by 1.2 is a regression.
	if got := compareSets(spec, base, set(1.2, 10, 10.2, 9.8, 10.1, 9.9))[1].Verdict; got != "worse" {
		t.Errorf("throughput verdict %s, want worse", got)
	}
	// A noisy side is still better when every one of its runs beats every
	// baseline run.
	if got := compareSets(spec, base, set(0.5, 5, 15, 8, 12, 19))[0].Verdict; got != "better" {
		t.Errorf("noisy but dominating verdict %s, want better", got)
	}
}
