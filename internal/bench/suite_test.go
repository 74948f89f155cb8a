package bench

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// runS runs the smoke preset at a tiny time scale: every benchmark takes its
// MinRuns and stops, so the test exercises the full suite shape in seconds.
func runS(t *testing.T) *Report {
	t.Helper()
	rep, err := RunSuite(context.Background(), SuiteConfig{Preset: "S", TimeScale: 0.02})
	if err != nil {
		t.Fatalf("RunSuite(S): %v", err)
	}
	return rep
}

func TestRunSuiteShapeIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run in -short mode")
	}
	a := runS(t)
	b := runS(t)

	p, _ := LookupPreset("S")
	if len(a.Results) != p.BenchmarkCount() {
		t.Errorf("suite emitted %d results, BenchmarkCount predicts %d — update the formula",
			len(a.Results), p.BenchmarkCount())
	}
	namesA, namesB := sortedResultNames(a.Results), sortedResultNames(b.Results)
	if len(namesA) != len(namesB) {
		t.Fatalf("two runs differ in size: %d vs %d", len(namesA), len(namesB))
	}
	for i := range namesA {
		if namesA[i] != namesB[i] {
			t.Fatalf("benchmark list is not deterministic: %q vs %q at %d", namesA[i], namesB[i], i)
		}
	}
	if a.Schema != SchemaVersion || a.Preset != "S" || a.Seed != p.Seed {
		t.Errorf("report header wrong: %+v", a)
	}
	if a.Env != CurrentEnv() {
		t.Errorf("env block not captured: %+v", a.Env)
	}

	// Every group the suite promises is present.
	groups := make(map[string]bool)
	for _, g := range a.Groups() {
		groups[g] = true
	}
	for _, want := range []string{"pipeline", "kernels", "convert", "parse", "features", "predict", "serve", "session"} {
		if !groups[want] {
			t.Errorf("suite missing group %q (have %v)", want, a.Groups())
		}
	}
	for _, res := range a.Results {
		if res.Runs < 1 || res.NsMedian <= 0 {
			t.Errorf("degenerate result: %+v", res)
		}
	}

	// A report written and re-read survives, and self-compares clean.
	c, err := Compare(a, b, DefaultCompareOptions())
	if err != nil {
		t.Fatalf("comparing two runs: %v", err)
	}
	if c.Added != 0 || c.Removed != 0 {
		t.Errorf("same preset, same seed, but shape moved: added=%d removed=%d", c.Added, c.Removed)
	}
}

func TestRunSuiteUnknownPreset(t *testing.T) {
	_, err := RunSuite(context.Background(), SuiteConfig{Preset: "XL"})
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	if !strings.Contains(err.Error(), "XL") {
		t.Errorf("error does not name the preset: %v", err)
	}
}

func TestRunSuiteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunSuite(ctx, SuiteConfig{Preset: "S", TimeScale: 0.02})
	if err == nil {
		t.Fatal("cancelled suite returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if rep == nil {
		t.Fatal("cancelled suite should still return its partial report")
	}
	if len(rep.Results) != 0 {
		t.Errorf("pre-cancelled run measured %d benchmarks, want 0", len(rep.Results))
	}
}

func TestSuiteMethodsCoverFamilies(t *testing.T) {
	ms := suiteMethods()
	if len(ms) != 5 {
		t.Fatalf("suiteMethods() = %d methods, want 5 (one per family)", len(ms))
	}
	if len(convertMethods()) != len(ms)-1 {
		t.Errorf("convertMethods() should drop only CSR: %d vs %d", len(convertMethods()), len(ms))
	}
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		s := m.String()
		if seen[s] {
			t.Errorf("duplicate suite method %s", s)
		}
		seen[s] = true
	}
}
