package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/kernels"
	"wise/internal/matrix"
	"wise/internal/resilience/faultinject"
)

// triMatrix builds a deterministic tridiagonal n x n test matrix.
func triMatrix(n int, scale float64) *matrix.CSR {
	rowptr := make([]int64, n+1)
	var col []int32
	var vals []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			col = append(col, int32(i-1))
			vals = append(vals, scale)
		}
		col = append(col, int32(i))
		vals = append(vals, 2*scale+float64(i%7))
		if i < n-1 {
			col = append(col, int32(i+1))
			vals = append(vals, scale)
		}
		rowptr[i+1] = int64(len(col))
	}
	return &matrix.CSR{Rows: n, Cols: n, RowPtr: rowptr, ColIdx: col, Vals: vals}
}

var csrMethod = kernels.Method{Kind: kernels.CSR, Sched: kernels.Dyn}

// testPrepared runs a real (tiny) inspector pass: matrix, features, a fixed
// CSR selection, and an eagerly built format.
func testPrepared(n int, scale float64) *Prepared {
	m := triMatrix(n, scale)
	f := features.Extract(m, features.DefaultConfig())
	sel := core.Selection{Method: csrMethod, Index: 0, PredictedClass: 1, Classes: []int{1}}
	return &Prepared{M: m, Feat: f, Sel: sel, GenID: "g1", Format: kernels.Build(m, sel.Method, 64)}
}

// buildOf returns a BuildFunc serving p and counting invocations.
func buildOf(p *Prepared, count *atomic.Int32) BuildFunc {
	return func(ctx context.Context) (*Prepared, error) {
		if count != nil {
			count.Add(1)
		}
		return p, nil
	}
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// armFaults arms a fault spec for the test and disarms it at cleanup.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	if err := faultinject.Configure(spec, 1); err != nil {
		t.Fatalf("faultinject.Configure(%q): %v", spec, err)
	}
	t.Cleanup(faultinject.Disable)
}

// checkExec asserts the store's cached execution matches the reference
// serial SpMV over the same matrix.
func checkExec(t *testing.T, s *Store, e *Entry) {
	t.Helper()
	m := e.Matrix()
	x := matrix.Iota(m.Cols)
	y, err := s.Exec(context.Background(), e, x, 1, 1)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	want := make([]float64, m.Rows)
	m.SpMV(want, x)
	if d := matrix.MaxAbsDiff(y, want); d > 1e-9 {
		t.Fatalf("cached execution diverges from reference by %g", d)
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := Fingerprint([]byte("body")), Fingerprint([]byte("body"))
	if a != b || len(a) != 64 {
		t.Fatalf("Fingerprint not a stable 64-hex digest: %q vs %q", a, b)
	}
	if Fingerprint([]byte("other")) == a {
		t.Fatal("distinct bodies share a fingerprint")
	}
}

func TestOpenValidatesBudget(t *testing.T) {
	if _, err := Open(Config{MaxBytes: 0}); err == nil {
		t.Fatal("Open accepted a zero byte budget")
	}
}

func TestGetOrCreateCachesAndPins(t *testing.T) {
	s := mustOpen(t, Config{MaxBytes: 1 << 20})
	p := testPrepared(32, 1)
	var builds atomic.Int32
	e1, hit, err := s.GetOrCreate(context.Background(), "fp1", buildOf(p, &builds))
	if err != nil || hit {
		t.Fatalf("first GetOrCreate: hit=%v err=%v", hit, err)
	}
	e2, hit, err := s.GetOrCreate(context.Background(), "fp1", buildOf(p, &builds))
	if err != nil || !hit || e2 != e1 {
		t.Fatalf("second GetOrCreate: hit=%v err=%v same=%v", hit, err, e2 == e1)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.Entries != 1 || st.PinnedEntries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after hit+miss: %+v", st)
	}
	s.Release(e1)
	if s.PinnedCount() != 1 {
		t.Fatalf("one release should leave the entry pinned once, got %d pinned", s.PinnedCount())
	}
	s.Release(e2)
	if s.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", s.PinnedCount())
	}
	checkExec(t, s, e1)
}

func TestEvictionRespectsBudgetAndPins(t *testing.T) {
	one := preparedCost(testPrepared(32, 1).M)
	s := mustOpen(t, Config{MaxBytes: 2*one + one/2})

	ctx := context.Background()
	a, _, err := s.GetOrCreate(ctx, "a", buildOf(testPrepared(32, 1), nil))
	if err != nil {
		t.Fatal(err)
	}
	s.Release(a)
	b, _, err := s.GetOrCreate(ctx, "b", buildOf(testPrepared(32, 2), nil))
	if err != nil {
		t.Fatal(err)
	}
	s.Release(b)
	// Third insert must evict the LRU victim "a".
	c, _, err := s.GetOrCreate(ctx, "c", buildOf(testPrepared(32, 3), nil))
	if err != nil {
		t.Fatal(err)
	}
	s.Release(c)
	if _, ok := s.Acquire("a"); ok {
		t.Fatal("LRU victim 'a' survived over-budget insert")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > st.MaxBytes {
		t.Fatalf("after eviction: %+v", st)
	}

	// Pin both survivors: the store is now irreducible, a new insert must
	// saturate, and neither pinned entry may be evicted.
	b2, ok := s.Acquire("b")
	if !ok {
		t.Fatal("'b' missing")
	}
	c2, ok := s.Acquire("c")
	if !ok {
		t.Fatal("'c' missing")
	}
	_, _, err = s.GetOrCreate(ctx, "d", buildOf(testPrepared(32, 4), nil))
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("insert into fully pinned store: err=%v, want ErrSaturated", err)
	}
	if _, ok := s.Acquire("b"); !ok {
		t.Fatal("pinned 'b' was evicted")
	}
	if _, ok := s.Acquire("c"); !ok {
		t.Fatal("pinned 'c' was evicted")
	}
	s.Release(b2)
	s.Release(b2)
	s.Release(c2)
	s.Release(c2)
	if s.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", s.PinnedCount())
	}

	// An entry larger than the whole budget saturates without disturbing
	// the cache.
	huge := mustOpen(t, Config{MaxBytes: one / 2})
	if _, _, err := huge.GetOrCreate(ctx, "x", buildOf(testPrepared(32, 1), nil)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("oversized insert: err=%v, want ErrSaturated", err)
	}
}

// TestSingleflightOneBuild is half of the amortization proof: N concurrent
// identical uploads run exactly one inspector pass, and everyone shares the
// single pinned entry.
func TestSingleflightOneBuild(t *testing.T) {
	s := mustOpen(t, Config{MaxBytes: 1 << 20})
	p := testPrepared(32, 1)
	release := make(chan struct{})
	var builds atomic.Int32
	build := func(ctx context.Context) (*Prepared, error) {
		builds.Add(1)
		<-release // hold the flight open until every waiter has joined
		return p, nil
	}

	const n = 16
	var wg sync.WaitGroup
	entries := make([]*Entry, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _, errs[i] = s.GetOrCreate(context.Background(), "fp", build)
		}(i)
	}
	// Wait until one leader is inside build and the rest are waiters.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if builds.Load() == 1 && s.Stats().SingleflightWaits == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters never assembled: builds=%d stats=%+v", builds.Load(), s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent uploads ran %d builds, want exactly 1", n, got)
	}
	for i := range entries {
		if errs[i] != nil || entries[i] != entries[0] {
			t.Fatalf("caller %d: err=%v sharedEntry=%v", i, errs[i], entries[i] == entries[0])
		}
	}
	if st := s.Stats(); st.PinnedEntries != 1 || st.Entries != 1 {
		t.Fatalf("after singleflight: %+v", st)
	}
	for range entries {
		s.Release(entries[0])
	}
	if s.PinnedCount() != 0 {
		t.Fatalf("pins leaked after releasing all %d callers", n)
	}
}

// TestSingleflightLeaderFailureFailsWaiters holds a failing build open
// until the waiters have joined, then asserts every caller receives the
// leader's error and nothing is cached or pinned.
func TestSingleflightLeaderFailureFailsWaiters(t *testing.T) {
	s := mustOpen(t, Config{MaxBytes: 1 << 20})
	release := make(chan struct{})
	buildErr := errors.New("inspector exploded")
	build := func(ctx context.Context) (*Prepared, error) {
		<-release
		return nil, buildErr
	}

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.GetOrCreate(context.Background(), "fp", build)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SingleflightWaits != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never assembled: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, buildErr) {
			t.Fatalf("caller %d got %v, want the leader's error", i, err)
		}
	}
	st := s.Stats()
	if st.Entries != 0 || st.PinnedEntries != 0 || st.LeaderFailures != 1 {
		t.Fatalf("after leader failure: %+v", st)
	}
}

// TestSingleflightLeaderFaultSite arms session.singleflight.leaderfail and
// asserts the injected failure surfaces as the build error and the next
// upload recovers.
func TestSingleflightLeaderFaultSite(t *testing.T) {
	armFaults(t, "session.singleflight.leaderfail:error")
	s := mustOpen(t, Config{MaxBytes: 1 << 20})
	_, _, err := s.GetOrCreate(context.Background(), "fp", buildOf(testPrepared(32, 1), nil))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed leaderfail: err=%v, want ErrInjected", err)
	}
	e, _, err := s.GetOrCreate(context.Background(), "fp", buildOf(testPrepared(32, 1), nil))
	if err != nil {
		t.Fatalf("upload after injected leader failure: %v", err)
	}
	s.Release(e)
}

// TestWaiterDeadline gives up a waiter mid-flight and asserts no pin and no
// goroutine leaks: the leader's later completion grants pins only to the
// callers still present.
func TestWaiterDeadline(t *testing.T) {
	s := mustOpen(t, Config{MaxBytes: 1 << 20})
	p := testPrepared(32, 1)
	release := make(chan struct{})
	build := func(ctx context.Context) (*Prepared, error) {
		<-release
		return p, nil
	}

	leaderDone := make(chan *Entry, 1)
	go func() {
		e, _, err := s.GetOrCreate(context.Background(), "fp", build)
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leaderDone <- e
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Misses != 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := s.GetOrCreate(ctx, "fp", build)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter: err=%v, want DeadlineExceeded", err)
	}

	close(release)
	e := <-leaderDone
	if st := s.Stats(); st.PinnedEntries != 1 {
		t.Fatalf("abandoned waiter leaked a pin: %+v", st)
	}
	s.Release(e)
	if s.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", s.PinnedCount())
	}
}

func TestRefreshRepredictsOnlyOnGenerationChange(t *testing.T) {
	s := mustOpen(t, Config{MaxBytes: 1 << 20})
	e, _, err := s.GetOrCreate(context.Background(), "fp", buildOf(testPrepared(64, 1), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(e)

	calls := 0
	predict := func(f features.Features) core.Selection {
		calls++
		return core.Selection{Method: kernels.Method{Kind: kernels.CSR, Sched: kernels.St}, Index: 1, PredictedClass: 2}
	}
	if sel := s.Refresh(e, "g1", predict); calls != 0 || sel.Index != 0 {
		t.Fatalf("same-generation Refresh re-predicted: calls=%d sel=%+v", calls, sel)
	}
	sel := s.Refresh(e, "g2", predict)
	if calls != 1 || sel.Index != 1 {
		t.Fatalf("generation change: calls=%d sel=%+v", calls, sel)
	}
	// The cached format was built for the old method; execution after the
	// method moved must rebuild it (once) and still match the reference.
	before := s.Stats().Converts
	checkExec(t, s, e)
	checkExec(t, s, e)
	if got := s.Stats().Converts - before; got != 1 {
		t.Fatalf("format rebuilt %d times after method change, want 1", got)
	}
}

func TestSpillRehydrate(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Config{MaxBytes: 1 << 20, SpillDir: dir})
	ctx := context.Background()
	for i, fp := range []string{"aaaa", "bbbb"} {
		e, _, err := s1.GetOrCreate(ctx, fp, buildOf(testPrepared(48, float64(i+1)), nil))
		if err != nil {
			t.Fatal(err)
		}
		s1.Release(e)
	}
	if st := s1.Stats(); st.Spills != 2 {
		t.Fatalf("spills: %+v", st)
	}

	s2 := mustOpen(t, Config{MaxBytes: 1 << 20, SpillDir: dir})
	st := s2.Stats()
	if st.Recoveries != 2 || st.Entries != 2 || st.Quarantined != 0 {
		t.Fatalf("rehydration: %+v", st)
	}
	// Rehydrated sessions answer without any new inspector pass: the format
	// is rebuilt lazily (one convert per entry), parse and extract never rerun.
	for _, fp := range []string{"aaaa", "bbbb"} {
		e, ok := s2.Acquire(fp)
		if !ok {
			t.Fatalf("session %s not rehydrated", fp)
		}
		checkExec(t, s2, e)
		s2.Release(e)
	}
	st = s2.Stats()
	if st.Builds != 0 || st.Converts != 2 {
		t.Fatalf("rehydrated execution reran the inspector: %+v", st)
	}
}

// TestCorruptSpillQuarantined covers the injected-corruption half of the
// crash-safety proof: a spill file whose checksum no longer matches is
// quarantined at restart — renamed aside, counted, the session rebuilt on
// its next upload — and never produces a corrupt answer.
func TestCorruptSpillQuarantined(t *testing.T) {
	dir := t.TempDir()
	armFaults(t, "session.spill.corrupt:error")
	s1 := mustOpen(t, Config{MaxBytes: 1 << 20, SpillDir: dir})
	e, _, err := s1.GetOrCreate(context.Background(), "cafe", buildOf(testPrepared(48, 1), nil))
	if err != nil {
		t.Fatal(err)
	}
	s1.Release(e)
	faultinject.Disable()

	s2 := mustOpen(t, Config{MaxBytes: 1 << 20, SpillDir: dir})
	st := s2.Stats()
	if st.Quarantined != 1 || st.Recoveries != 0 || st.Entries != 0 {
		t.Fatalf("corrupt spill not quarantined: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "cafe"+spillSuffix+".quarantined")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The session rebuilds cleanly and spills a good copy this time.
	e2, _, err := s2.GetOrCreate(context.Background(), "cafe", buildOf(testPrepared(48, 1), nil))
	if err != nil {
		t.Fatalf("rebuild after quarantine: %v", err)
	}
	checkExec(t, s2, e2)
	s2.Release(e2)
	s3 := mustOpen(t, Config{MaxBytes: 1 << 20, SpillDir: dir})
	if st := s3.Stats(); st.Recoveries != 1 {
		t.Fatalf("rebuilt session did not rehydrate: %+v", st)
	}
}

// TestCrashMidSpillRestart covers the kill-mid-spill half of the
// crash-safety proof: the injected panic dies before the atomic commit, so
// the restart finds no file for the session and cleanly rebuilds it.
func TestCrashMidSpillRestart(t *testing.T) {
	dir := t.TempDir()
	armFaults(t, "session.spill.corrupt:panic")
	s1 := mustOpen(t, Config{MaxBytes: 1 << 20, SpillDir: dir})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("armed spill panic did not fire")
			}
		}()
		_, _, _ = s1.GetOrCreate(context.Background(), "dead", buildOf(testPrepared(48, 1), nil))
	}()
	faultinject.Disable()

	// "Restart": a fresh store over the same dir sees a clean (empty) spill
	// dir — no torn file, no quarantine — and the session rebuilds.
	s2 := mustOpen(t, Config{MaxBytes: 1 << 20, SpillDir: dir})
	st := s2.Stats()
	if st.Entries != 0 || st.Quarantined != 0 {
		t.Fatalf("crash mid-spill left debris: %+v", st)
	}
	e, _, err := s2.GetOrCreate(context.Background(), "dead", buildOf(testPrepared(48, 1), nil))
	if err != nil {
		t.Fatalf("rebuild after crash: %v", err)
	}
	checkExec(t, s2, e)
	s2.Release(e)
}

// TestCrashMidEvictionRestart kills the store between victim selection and
// removal and asserts the invariant the site protects: the crash leaves
// both memory and spill consistent, and a restart rehydrates every session
// with correct answers — session.recoveries counts them.
func TestCrashMidEvictionRestart(t *testing.T) {
	dir := t.TempDir()
	one := preparedCost(testPrepared(48, 1).M)
	cfg := Config{MaxBytes: 2*one + one/2, SpillDir: dir}
	s1 := mustOpen(t, cfg)
	ctx := context.Background()
	for i, fp := range []string{"aaaa", "bbbb"} {
		e, _, err := s1.GetOrCreate(ctx, fp, buildOf(testPrepared(48, float64(i+1)), nil))
		if err != nil {
			t.Fatal(err)
		}
		s1.Release(e)
	}

	armFaults(t, "session.evict.race:panic")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("armed eviction panic did not fire")
			}
		}()
		_, _, _ = s1.GetOrCreate(ctx, "cccc", buildOf(testPrepared(48, 3), nil))
	}()
	faultinject.Disable()

	// The panic unwound with the victim still intact: no half-removed entry.
	st := s1.Stats()
	if st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("crash mid-eviction corrupted the store: %+v", st)
	}

	s2 := mustOpen(t, cfg)
	st = s2.Stats()
	if st.Recoveries != 2 || st.Entries != 2 || st.Quarantined != 0 {
		t.Fatalf("restart after crash mid-eviction: %+v", st)
	}
	for _, fp := range []string{"aaaa", "bbbb"} {
		e, ok := s2.Acquire(fp)
		if !ok {
			t.Fatalf("session %s lost across the crash", fp)
		}
		checkExec(t, s2, e)
		s2.Release(e)
	}
}

// TestEvictRaceErrorDegrades arms the eviction race as an error: the pass
// treats the victim as pinned-under-us and abandons eviction, so the insert
// saturates and the caller degrades — existing sessions are untouched.
func TestEvictRaceErrorDegrades(t *testing.T) {
	one := preparedCost(testPrepared(48, 1).M)
	s := mustOpen(t, Config{MaxBytes: 2*one + one/2})
	ctx := context.Background()
	for i, fp := range []string{"aaaa", "bbbb"} {
		e, _, err := s.GetOrCreate(ctx, fp, buildOf(testPrepared(48, float64(i+1)), nil))
		if err != nil {
			t.Fatal(err)
		}
		s.Release(e)
	}
	armFaults(t, "session.evict.race:error")
	_, _, err := s.GetOrCreate(ctx, "cccc", buildOf(testPrepared(48, 3), nil))
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("raced eviction: err=%v, want ErrSaturated", err)
	}
	st := s.Stats()
	if st.Entries != 2 || st.EvictionsRefused != 1 {
		t.Fatalf("raced eviction disturbed the cache: %+v", st)
	}
}

// TestExecPanicSite arms session.exec.panic and asserts the panic escapes
// Exec (for the handler's per-request recovery to catch) while the store —
// including the pinned entry — stays fully usable afterwards.
func TestExecPanicSite(t *testing.T) {
	s := mustOpen(t, Config{MaxBytes: 1 << 20})
	e, _, err := s.GetOrCreate(context.Background(), "fp", buildOf(testPrepared(48, 1), nil))
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t, "session.exec.panic:panic")
	func() {
		defer func() {
			if rec := recover(); rec == nil || !strings.Contains(fmt.Sprint(rec), "injected") {
				t.Errorf("armed exec panic did not fire: %v", rec)
			}
		}()
		_, _ = s.Exec(context.Background(), e, matrix.Ones(48), 1, 1)
	}()
	faultinject.Disable()
	checkExec(t, s, e)
	s.Release(e)
	if s.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", s.PinnedCount())
	}
}

func TestExecIterations(t *testing.T) {
	s := mustOpen(t, Config{MaxBytes: 1 << 20})
	e, _, err := s.GetOrCreate(context.Background(), "fp", buildOf(testPrepared(32, 1), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(e)
	m := e.Matrix()
	x := matrix.Ones(m.Cols)
	y, err := s.Exec(context.Background(), e, x, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: y = A^3 * x via the serial kernel.
	cur := x
	want := make([]float64, m.Rows)
	for i := 0; i < 3; i++ {
		m.SpMV(want, cur)
		cur = append([]float64(nil), want...)
	}
	if d := matrix.MaxAbsDiff(y, want); d > 1e-6 {
		t.Fatalf("3-iteration execution diverges from A^3*x by %g", d)
	}
}

// TestStoreTortureConcurrent is the -race torture gate: 64 goroutines mix
// upload, acquire, execute, and release over overlapping fingerprints
// against a budget small enough to force continuous eviction, asserting the
// byte budget is never exceeded, pins never leak, and no goroutines leak.
func TestStoreTortureConcurrent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	one := preparedCost(testPrepared(32, 1).M)
	s := mustOpen(t, Config{MaxBytes: 3 * one})

	const (
		workers = 64
		iters   = 40
		keys    = 8
	)
	var budgetViolations atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				fp := fmt.Sprintf("key-%d", (w+i)%keys)
				scale := float64((w+i)%keys + 1)
				switch i % 3 {
				case 0: // upload (or hit) + execute
					e, _, err := s.GetOrCreate(ctx, fp, buildOf(testPrepared(32, scale), nil))
					if err != nil {
						if !errors.Is(err, ErrSaturated) {
							t.Errorf("GetOrCreate: %v", err)
						}
						continue
					}
					if _, err := s.Exec(ctx, e, matrix.Ones(32), 1, 1); err != nil {
						t.Errorf("Exec: %v", err)
					}
					s.Release(e)
				case 1: // warm predict path
					if e, ok := s.Acquire(fp); ok {
						_, _ = e.Selection()
						s.Release(e)
					}
				case 2: // distinct key to force eviction churn
					e, _, err := s.GetOrCreate(ctx, fmt.Sprintf("churn-%d-%d", w, i), buildOf(testPrepared(32, scale), nil))
					if err == nil {
						s.Release(e)
					} else if !errors.Is(err, ErrSaturated) {
						t.Errorf("churn GetOrCreate: %v", err)
					}
				}
				if st := s.Stats(); st.Bytes > st.MaxBytes {
					budgetViolations.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if v := budgetViolations.Load(); v != 0 {
		t.Fatalf("byte budget exceeded %d times under torture", v)
	}
	if st := s.Stats(); st.PinnedEntries != 0 {
		t.Fatalf("pins leaked under torture: %+v", st)
	}
	// Goroutine-leak check: everything the store started must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines leaked: %d before, %d after", baseline, g)
	}
}

// TestChaosSessionFromEnv is the nightly chaos entry point (ci.yml): with
// WISE_FAULTS armed over the session.* sites it hammers a spill-backed
// store concurrently and asserts the stateful invariants hold under
// injected corruption, eviction races, leader failures, and exec panics —
// budget never exceeded, no pin leaks, and a final restart over the same
// spill dir comes up clean. Skips when WISE_FAULTS is empty.
func TestChaosSessionFromEnv(t *testing.T) {
	if os.Getenv("WISE_FAULTS") == "" {
		t.Skip("WISE_FAULTS not set; chaos matrix only")
	}
	if err := faultinject.ConfigureFromEnv(os.Getenv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)

	dir := t.TempDir()
	one := preparedCost(testPrepared(32, 1).M)
	cfg := Config{MaxBytes: 4 * one, SpillDir: dir}
	s := mustOpen(t, cfg)

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				func() {
					// Injected panics stand in for request-scoped crashes;
					// the handler's recovery is simulated here.
					defer func() { _ = recover() }()
					fp := fmt.Sprintf("key-%d", (w+i)%6)
					e, _, err := s.GetOrCreate(context.Background(), fp, buildOf(testPrepared(32, float64(w%4+1)), nil))
					if err != nil {
						return
					}
					defer s.Release(e)
					_, _ = s.Exec(context.Background(), e, matrix.Ones(32), 1, 1)
				}()
				if st := s.Stats(); st.Bytes > st.MaxBytes {
					t.Errorf("byte budget exceeded under chaos: %+v", st)
				}
			}
		}(w)
	}
	wg.Wait()

	// Disarm and restart over the same spill dir: whatever chaos did to the
	// files, Open must come up clean — every file either rehydrates or is
	// quarantined, never a fatal error or a corrupt answer.
	faultinject.Disable()
	s2 := mustOpen(t, cfg)
	st := s2.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("restart exceeded budget: %+v", st)
	}
	for _, el := range []string{"key-0", "key-1", "key-2"} {
		if e, ok := s2.Acquire(el); ok {
			checkExec(t, s2, e)
			s2.Release(e)
		}
	}
}
