package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to; SleepUntil jumps to the deadline,
// late by oversleep.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time // guarded by mu
	oversleep time.Duration
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) SleepUntil(t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.After(f.now) {
		f.now = t.Add(f.oversleep)
	}
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func msList(samples []sample, pick func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(pick(s)) / float64(time.Millisecond)
	}
	return out
}

func TestOpenLoopStallDelaysLaterOps(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.Now()
	// Ten ops due every 10 ms, each answered in 1 ms except op 2, which
	// stalls for 35 ms: ops 3-5 wait behind it, and their latency from the
	// due time counts the wait.
	samples, unsent := openLoop(context.Background(), clk, 1, 100, start, start.Add(100*time.Millisecond), time.Second, 0,
		func(s, j int) result {
			d := time.Millisecond
			if j == 2 {
				d = 35 * time.Millisecond
			}
			clk.advance(d)
			return result{kind: opPredict}
		})
	if len(samples) != 10 || unsent != 0 {
		t.Fatalf("%d samples, %d unsent; want 10 and 0", len(samples), unsent)
	}
	wantLatency := []float64{1, 1, 35, 26, 17, 8, 1, 1, 1, 1}
	wantService := []float64{1, 1, 35, 1, 1, 1, 1, 1, 1, 1}
	gotLatency, gotService := msList(samples, func(s sample) time.Duration { return s.latency }),
		msList(samples, func(s sample) time.Duration { return s.service })
	for i := range wantLatency {
		if !near(gotLatency[i], wantLatency[i]) || !near(gotService[i], wantService[i]) {
			t.Fatalf("latency %v service %v, want %v and %v", gotLatency, gotService, wantLatency, wantService)
		}
	}
	if lag := summarize(samples, 0).metrics["loadgen.lag_ms_p90"]; lag > 0 {
		t.Errorf("lag p90 = %v ms with an exact clock, want 0", lag)
	}

	// A generator that wakes 0.5 ms late reports the lag and charges it to
	// every op that waited for its due time.
	clk = &fakeClock{now: time.Unix(1000, 0), oversleep: 500 * time.Microsecond}
	start = clk.Now()
	samples, _ = openLoop(context.Background(), clk, 1, 100, start, start.Add(100*time.Millisecond), time.Second, 0,
		func(s, j int) result {
			clk.advance(time.Millisecond)
			return result{kind: opPredict}
		})
	ps := summarize(samples, 0)
	if lag := ps.metrics["loadgen.lag_ms_p90"]; !near(lag, 0.5) {
		t.Errorf("lag p90 = %v ms, want 0.5", lag)
	}
	if p50 := ps.metrics["latency_p50_ms"]; !near(p50, 1.5) {
		t.Errorf("latency p50 = %v ms, want 1.5 (1 ms answer + 0.5 ms late send)", p50)
	}
}

func TestOpenLoopCountsUnsentOpsAsFailed(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.Now()
	// Five ops due in 50 ms; op 1 stalls past the 10 ms grace, so ops 2-4
	// are never sent.
	samples, unsent := openLoop(context.Background(), clk, 1, 100, start, start.Add(50*time.Millisecond), 10*time.Millisecond, 0,
		func(s, j int) result {
			d := time.Millisecond
			if j == 1 {
				d = 200 * time.Millisecond
			}
			clk.advance(d)
			return result{kind: opPredict}
		})
	if len(samples) != 2 || unsent != 3 {
		t.Fatalf("%d samples, %d unsent; want 2 and 3", len(samples), unsent)
	}
	if ps := summarize(samples, unsent); ps.attempted != 5 || ps.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", ps.attempted, ps.failed)
	}
}

func TestClosedLoopRunsExactCounts(t *testing.T) {
	var mu sync.Mutex
	seen := map[[2]int]bool{}
	per := closedLoop(context.Background(), wallClock{}, 2, 5, []int{3, 2}, time.Time{}, func(c, i int) result {
		mu.Lock()
		defer mu.Unlock()
		seen[[2]int{c, i}] = true
		return result{}
	})
	if len(per[0]) != 3 || len(per[1]) != 2 || len(seen) != 5 {
		t.Fatalf("ran %d and %d ops (%v), want 3 and 2", len(per[0]), len(per[1]), seen)
	}
	for _, k := range [][2]int{{0, 5}, {0, 6}, {0, 7}, {1, 5}, {1, 6}} {
		if !seen[k] {
			t.Errorf("client %d never ran op %d", k[0], k[1])
		}
	}
}

func TestCheckRejectsWrongAnswers(t *testing.T) {
	want := expected{method: "LAV[c=8,T=70%]", fp: "ab12", yNorm: 1234.5}
	right := wireResponse{Method: want.method, Fingerprint: "ab12", YNorm: want.yNorm}
	if err := check(opSpMV, right, want, "ab12"); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	cases := map[string]func(*wireResponse){
		"wrong method":      func(a *wireResponse) { a.Method = "CSR[Dyn]" },
		"wrong fingerprint": func(a *wireResponse) { a.Fingerprint = "cd34" },
		"perturbed y_norm":  func(a *wireResponse) { a.YNorm *= 1 + 2e-9 },
		"NaN y_norm":        func(a *wireResponse) { a.YNorm = math.NaN() },
	}
	for name, mutate := range cases {
		a := right
		mutate(&a)
		if check(opSpMV, a, want, "ab12") == nil {
			t.Errorf("%s accepted", name)
		}
	}
	rounded := right
	rounded.YNorm *= 1 + 5e-10
	if err := check(opSpMV, rounded, want, "ab12"); err != nil {
		t.Errorf("y_norm within 1e-9 rejected: %v", err)
	}
	fallback := wireResponse{Method: "CSR[Dyn]", Degraded: true}
	if err := check(opPredict, fallback, want, ""); err != nil {
		t.Errorf("degraded fallback answer rejected: %v", err)
	}
}
