package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/ml"
	"wise/internal/perf"
	"wise/internal/registry"
	"wise/internal/resilience"
	"wise/internal/resilience/faultinject"
)

// buildShadowModel trains a two-method framework that predicts SELLPACK as a
// big win (class 2 vs CSR's class 0) — the opposite of what the fake shadow
// measurements will report, so drift is guaranteed.
func buildShadowModel(path string) error {
	space := []kernels.Method{
		{Kind: kernels.CSR, Sched: kernels.Dyn},
		{Kind: kernels.SELLPACK, Sched: kernels.Dyn, C: 8},
	}
	rng := rand.New(rand.NewSource(2))
	var labels []perf.MatrixLabels
	for i := 0; i < 6; i++ {
		m := gen.Uniform(rng, 150+20*i, 4)
		labels = append(labels, perf.MatrixLabels{
			Name: fmt.Sprintf("shadow-train-%d", i),
			Rows: m.Rows, Cols: m.Cols, NNZ: int64(m.NNZ()),
			Features: features.Extract(m, features.DefaultConfig()),
			Methods:  space,
			Classes:  []int{0, 2},
		})
	}
	w, err := core.Train(labels, ml.DefaultTreeConfig(), features.DefaultConfig(), machine.Scaled())
	if err != nil {
		return err
	}
	return w.Save(path)
}

// feedbackConfig is the deterministic small-window loop configuration shared
// by the feedback tests: every request sampled, trip after 4 of 8 mismatch,
// probation of 8 samples.
func feedbackConfig(t *testing.T, measure measureFunc) Config {
	t.Helper()
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "models.json")
	if err := buildShadowModel(modelPath); err != nil {
		t.Fatalf("building shadow model: %v", err)
	}
	return Config{
		ModelPath:   modelPath,
		RegistryDir: filepath.Join(dir, "registry"),
		ReloadPoll:  -1,

		ShadowRate:    1,
		ShadowWorkers: 1,
		ShadowMeasure: measure,

		DriftWindow:     8,
		DriftMinSamples: 4,
		DriftTrip:       0.5,
	}
}

// startFeedbackServer runs the server's feedback loop for the test's
// lifetime and returns the server plus its HTTP front.
func startFeedbackServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SetReady(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RunFeedback(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// driveUntil posts /predict requests until cond holds or the deadline
// passes, reporting whether cond held.
func driveUntil(t *testing.T, url string, body []byte, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		if status, _, _ := postPredict(t, url, body); status != 200 {
			t.Fatalf("/predict status = %d during feedback drive", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestFeedbackLoopEndToEnd is the acceptance scenario for the self-healing
// loop, fully deterministic via the injected measurer: (1) the serving model
// predicts SELLPACK but shadow measurements report a 2x slowdown, so
// mismatches accumulate and the drift detector trips; (2) the loop retrains
// over the accumulated labels, the candidate (which has learned CSR wins)
// beats the serving generation on the held-out slice, and the canary gate
// promotes it; (3) the measurer then reports a regression against the
// promoted generation, drift trips inside the probation window, and the loop
// rolls the registry back to the original generation.
func TestFeedbackLoopEndToEnd(t *testing.T) {
	var phase atomic.Int32
	measure := func(job shadowJob, deadline time.Time) (float64, float64, error) {
		if phase.Load() == 0 {
			return 2e-3, 1e-3, nil // rel 2.0 -> class 0: the predicted win is a slowdown
		}
		return 3e-3, 1e-3, nil // rel 3.0 -> class 0: the promoted model regresses too
	}
	s, ts := startFeedbackServer(t, feedbackConfig(t, measure))
	body := mmBytes(t, testMatrix(t))

	origGen := s.GenerationID()
	if origGen == "" {
		t.Fatal("registry-backed server has no generation ID")
	}

	// Phase 1+2: mismatches -> drift trip -> retrain -> canary promotion.
	promoted := driveUntil(t, ts.URL, body, 20*time.Second, func() bool {
		return s.GenerationID() != origGen
	})
	if !promoted {
		t.Fatalf("no promotion: still serving %s (drift rate %.2f, %d retrains, %d failed)",
			s.GenerationID(), driftRate.Value(), retrains.Value(), retrainsFailed.Value())
	}
	promotedGen := s.GenerationID()

	// Phase 3: regression against the promoted generation during probation
	// must roll back to the original generation.
	phase.Store(1)
	rolledBack := driveUntil(t, ts.URL, body, 20*time.Second, func() bool {
		return s.GenerationID() == origGen
	})
	if !rolledBack {
		t.Fatalf("no rollback: still serving %s, want %s restored", s.GenerationID(), origGen)
	}
	if cur := s.Registry().Current(); cur == nil || cur.ID != origGen {
		t.Fatalf("registry serves %+v after rollback, want %s", cur, origGen)
	}
	if promotedGen == origGen {
		t.Fatal("promotion did not change the generation ID")
	}

	// The loop keeps running after the rollback, and the regressed
	// generation is remembered: serving must stay on the original.
	time.Sleep(50 * time.Millisecond)
	if status, pr, _ := postPredict(t, ts.URL, body); status != 200 || pr.Degraded {
		t.Fatalf("serving unhealthy after rollback: status=%d degraded=%v", status, pr.Degraded)
	}
	if got := s.GenerationID(); got != origGen {
		t.Fatalf("re-promoted a rolled-back generation: serving %s, want %s", got, origGen)
	}
}

// TestShadowPanicQuarantined arms shadow.exec.panic: the injected panic in
// the shadow worker is recovered and counted, later samples still measure,
// and the request path never notices.
func TestShadowPanicQuarantined(t *testing.T) {
	armFaults(t, "shadow.exec.panic:panic")
	var measured atomic.Int64
	measure := func(job shadowJob, deadline time.Time) (float64, float64, error) {
		measured.Add(1)
		return 1e-3, 1e-3, nil
	}
	panicsBefore := shadowPanics.Value()
	_, ts := startFeedbackServer(t, feedbackConfig(t, measure))
	body := mmBytes(t, testMatrix(t))

	ok := driveUntil(t, ts.URL, body, 10*time.Second, func() bool {
		return shadowPanics.Value() > panicsBefore && measured.Load() > 0
	})
	if !ok {
		t.Fatalf("panics=%d (was %d), measured=%d; want the injected panic quarantined and later samples measured",
			shadowPanics.Value(), panicsBefore, measured.Load())
	}
	if status, pr, _ := postPredict(t, ts.URL, body); status != 200 || pr.Degraded {
		t.Fatalf("request path affected by shadow panic: status=%d degraded=%v", status, pr.Degraded)
	}
}

// TestShadowSamplesBeforeRead pins the shadow sample to the read: at a
// period of p, the sample is drawn before the body is read, one stateless
// /predict in p is sampled, the first included, and exactly those are read
// with their values and offered to the measurer.
func TestShadowSamplesBeforeRead(t *testing.T) {
	const p = 4
	f := &feedback{period: p}
	for n := 0; n < 3*p; n++ {
		if got := f.sample(); got != (n%p == 0) {
			t.Fatalf("request %d: sampled %v, want %v", n, got, n%p == 0)
		}
	}

	var offered, withValues atomic.Int32
	measure := func(job shadowJob, _ time.Time) (float64, float64, error) {
		offered.Add(1)
		if job.m.Vals != nil {
			withValues.Add(1)
		}
		return 1, 1, nil
	}
	_, ts := startFeedbackServer(t, Config{ModelPath: sharedModelPath, ReloadPoll: -1, ShadowRate: 1.0 / p, ShadowMeasure: measure})
	body := mmBytes(t, testMatrix(t))
	for n := 0; n < 3*p; n++ {
		if status, _, _ := postPredict(t, ts.URL, body); status != 200 {
			t.Fatalf("/predict status = %d", status)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for offered.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a wrongly offered fourth
	if o, v := offered.Load(), withValues.Load(); o != 3 || v != 3 {
		t.Fatalf("%d requests at period %d: %d offered, %d with values; want 3 and 3", 3*p, p, o, v)
	}
}

// TestShadowMeasuresRealKernels drives /predict with the production
// measurer: the shadow lane multiplies with the parsed matrix, so a server
// with the loop on must read the values of every sampled body. The quarantine
// would count a multiply over a value-free matrix as a panic and let the
// request pass, so the test asserts on the counters: measurements rise,
// panics do not.
func TestShadowMeasuresRealKernels(t *testing.T) {
	measuredBefore, panicsBefore := shadowMeasured.Value(), shadowPanics.Value()
	_, ts := startFeedbackServer(t, Config{ModelPath: sharedModelPath, ReloadPoll: -1, ShadowRate: 1})
	body := mmBytes(t, testMatrix(t))
	if !driveUntil(t, ts.URL, body, 10*time.Second, func() bool {
		return shadowMeasured.Value() >= measuredBefore+3 || shadowPanics.Value() > panicsBefore
	}) {
		t.Fatalf("shadow_measured %d, was %d: the real measurer never finished", shadowMeasured.Value(), measuredBefore)
	}
	if p := shadowPanics.Value(); p != panicsBefore {
		t.Fatalf("shadow_panics %d, was %d: the measurer panicked on a /predict matrix", p, panicsBefore)
	}
}

// TestRetrainFailureRetried arms retrain.fail for the first attempt: the
// failure is contained (serving untouched, serve.retrains_failed counted)
// and the still-tripped detector drives a second attempt that succeeds and
// promotes.
func TestRetrainFailureRetried(t *testing.T) {
	armFaults(t, "retrain.fail:error")
	measure := func(job shadowJob, deadline time.Time) (float64, float64, error) {
		return 2e-3, 1e-3, nil
	}
	failedBefore := retrainsFailed.Value()
	s, ts := startFeedbackServer(t, feedbackConfig(t, measure))
	body := mmBytes(t, testMatrix(t))

	origGen := s.GenerationID()
	promoted := driveUntil(t, ts.URL, body, 20*time.Second, func() bool {
		return s.GenerationID() != origGen
	})
	if retrainsFailed.Value() <= failedBefore {
		t.Fatalf("injected retrain failure never fired (failed=%d)", retrainsFailed.Value())
	}
	if !promoted {
		t.Fatal("retrain was not retried after the injected failure")
	}
}

// TestServePromoteCrashRestart is the serve-level crash-recovery scenario:
// a crash injected between generation publication and the manifest swap
// (registry.publish.crash) leaves the old generation serving; a fresh server
// on the same registry comes up on the last durable generation with an
// identical answer, and the retried promotion then succeeds.
func TestServePromoteCrashRestart(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "models.json")
	if err := buildShadowModel(modelPath); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ModelPath:   modelPath,
		RegistryDir: filepath.Join(dir, "registry"),
		ReloadPoll:  -1,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s1.SetReady(true)
	ts1 := httptest.NewServer(s1.Handler())
	body := mmBytes(t, testMatrix(t))
	gen0 := s1.GenerationID()
	_, before, _ := postPredict(t, ts1.URL, body)
	ts1.Close()

	// A distinct candidate, durable on disk but not yet serving.
	cand, err := core.Load(sharedModelPath, machine.Scaled())
	if err != nil {
		t.Fatal(err)
	}
	genB, err := s1.Registry().Publish(cand)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}

	armFaults(t, "registry.publish.crash:panic")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected crash did not fire during promotion")
			}
		}()
		_ = s1.Registry().Promote(genB.ID)
	}()

	// "Restart": a fresh server over the same registry directory must serve
	// the last durable generation and answer identically.
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after crash: %v", err)
	}
	s2.SetReady(true)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if got := s2.GenerationID(); got != gen0 {
		t.Fatalf("after crash restart serving %s, want last-good %s", got, gen0)
	}
	_, after, _ := postPredict(t, ts2.URL, body)
	if after.Method != before.Method || after.Index != before.Index ||
		after.PredictedClass != before.PredictedClass {
		t.Fatalf("post-crash answer %+v differs from pre-crash %+v", after, before)
	}

	// The crash clause is exhausted; retrying the interrupted promotion
	// succeeds without re-publishing.
	if err := s2.Registry().Promote(genB.ID); err != nil {
		t.Fatalf("retried promotion: %v", err)
	}
	if err := s2.Reload(); err != nil {
		t.Fatalf("Reload after promotion: %v", err)
	}
	if got := s2.GenerationID(); got != genB.ID {
		t.Fatalf("after retried promotion serving %s, want %s", got, genB.ID)
	}
}

// TestFileSourceChecksumChange is the reload-trigger fix: a model file
// rewritten with different bytes but identical mtime and size (coarse
// timestamps, same-length payload) must still read as changed via the
// envelope checksum.
func TestFileSourceChecksumChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	payloadA := []byte(`{"payload":"aaaa"}`)
	payloadB := []byte(`{"payload":"bbbb"}`)
	if err := resilience.WriteArtifact(path, core.ModelsArtifactKind, 1, payloadA); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	src := &modelHolder{path: path}
	cur := &loadedModel{mtime: fi.ModTime(), size: fi.Size(), sum: peekSum(path)}
	if cur.sum == "" {
		t.Fatal("enveloped artifact yielded no header checksum")
	}
	if src.changed(cur) {
		t.Fatal("unchanged file reported as changed")
	}

	// Same-length payload -> byte-identical file size; restore mtime to
	// simulate a rewrite within one timestamp granule.
	if err := resilience.WriteArtifact(path, core.ModelsArtifactKind, 1, payloadB); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	fiB, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fiB.Size() != fi.Size() || !fiB.ModTime().Equal(fi.ModTime()) {
		t.Fatalf("test setup failed to keep identity: size %d->%d mtime %v->%v",
			fi.Size(), fiB.Size(), fi.ModTime(), fiB.ModTime())
	}
	if !src.changed(cur) {
		t.Fatal("same-mtime same-size rewrite not detected by checksum compare")
	}

	// Legacy files without an envelope keep the mtime+size-only contract.
	legacy := &loadedModel{mtime: fiB.ModTime(), size: fiB.Size(), sum: ""}
	if src.changed(legacy) {
		t.Fatal("legacy (no-checksum) generation flagged changed on identical identity")
	}
}

// TestChaosFeedbackFromEnv is the nightly chaos entry point (ci.yml): armed
// purely from WISE_FAULTS, it drives the full feedback loop under whatever
// fault mix the matrix chose and asserts the one invariant every mix must
// preserve — the request path keeps answering 200 and the process survives.
func TestChaosFeedbackFromEnv(t *testing.T) {
	if os.Getenv("WISE_FAULTS") == "" {
		t.Skip("set WISE_FAULTS to run chaos (see the ci.yml chaos-nightly matrix for specs)")
	}
	if err := faultinject.ConfigureFromEnv(os.Getenv); err != nil {
		t.Fatalf("ConfigureFromEnv: %v", err)
	}
	t.Cleanup(faultinject.Disable)

	measure := func(job shadowJob, deadline time.Time) (float64, float64, error) {
		return 2e-3, 1e-3, nil // constant mismatch pressure keeps the loop busy
	}
	// Supervised startup: a crash injected into the registry seeding (the
	// process-kill site registry.publish.crash) is what a restart absorbs in
	// production, so retry New like a supervisor would.
	cfg := feedbackConfig(t, measure)
	var s *Server
	for attempt := 0; attempt < 10 && s == nil; attempt++ {
		s = tryNewServer(t, cfg)
	}
	if s == nil {
		// A fault mix that crashes every promotion can keep the registry
		// empty forever; the surviving invariant is that the directory
		// still opens cleanly as a registry.
		if _, err := registry.Open(cfg.RegistryDir, machine.Scaled()); err != nil {
			t.Fatalf("registry unusable after repeated startup crashes: %v", err)
		}
		t.Skipf("fault mix %q blocks startup deterministically; registry stayed valid", os.Getenv("WISE_FAULTS"))
	}
	s.SetReady(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RunFeedback(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := mmBytes(t, testMatrix(t))
	stop := time.Now().Add(3 * time.Second)
	for time.Now().Before(stop) {
		if status, _, _ := postPredict(t, ts.URL, body); status != 200 {
			t.Fatalf("/predict = %d under chaos", status)
		}
	}
}

// tryNewServer is one supervised startup attempt: injected startup crashes
// (panics) and errors both read as "the process died, restart it".
func tryNewServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			t.Logf("startup crash absorbed: %v", rec)
		}
	}()
	s, err := New(cfg)
	if err != nil {
		t.Logf("startup error absorbed: %v", err)
		return nil
	}
	return s
}
