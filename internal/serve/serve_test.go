package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/ml"
	"wise/internal/perf"
	"wise/internal/resilience/faultinject"
)

// Fault-injection state is process-global, so the whole package runs its
// HTTP tests against a shared tiny model trained once in TestMain.
var sharedModelPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wise-serve-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sharedModelPath = filepath.Join(dir, "models.json")
	if err := buildTestModel(sharedModelPath); err != nil {
		fmt.Fprintln(os.Stderr, "building test model:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildTestModel trains a deliberately tiny two-method framework: every
// matrix labels CSR with the higher speedup class, so prediction always
// selects CSR and the tests stay fast and deterministic.
func buildTestModel(path string) error {
	space := []kernels.Method{
		{Kind: kernels.CSR, Sched: kernels.Dyn},
		{Kind: kernels.SELLPACK, Sched: kernels.Dyn, C: 8},
	}
	rng := rand.New(rand.NewSource(1))
	var labels []perf.MatrixLabels
	for i := 0; i < 6; i++ {
		m := gen.Uniform(rng, 150+20*i, 4)
		labels = append(labels, perf.MatrixLabels{
			Name: fmt.Sprintf("train-%d", i),
			Rows: m.Rows, Cols: m.Cols, NNZ: int64(m.NNZ()),
			Features: features.Extract(m, features.DefaultConfig()),
			Methods:  space,
			Classes:  []int{1, 0},
		})
	}
	w, err := core.Train(labels, ml.DefaultTreeConfig(), features.DefaultConfig(), machine.Scaled())
	if err != nil {
		return err
	}
	return w.Save(path)
}

func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{ModelPath: sharedModelPath, ReloadPoll: -1}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func testMatrix(t *testing.T) *matrix.CSR {
	t.Helper()
	return gen.Uniform(rand.New(rand.NewSource(7)), 200, 4)
}

func mmBytes(t *testing.T, m *matrix.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatalf("WriteMatrixMarket: %v", err)
	}
	return buf.Bytes()
}

func postPredict(t *testing.T, url string, body []byte) (int, predictResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var pr predictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode, pr, resp.Header
}

func armFaults(t *testing.T, spec string) {
	t.Helper()
	if err := faultinject.Configure(spec, 1); err != nil {
		t.Fatalf("Configure(%q): %v", spec, err)
	}
	t.Cleanup(faultinject.Disable)
}

func TestPredictOK(t *testing.T) {
	_, ts := newTestServer(t, nil)
	m := testMatrix(t)
	status, pr, _ := postPredict(t, ts.URL, mmBytes(t, m))
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if pr.Degraded {
		t.Fatalf("healthy predict marked degraded: %+v", pr)
	}
	if !strings.Contains(pr.Method, "CSR") {
		t.Errorf("method = %q, want the CSR selection of the test model", pr.Method)
	}
	if pr.Rows != m.Rows || pr.Cols != m.Cols || pr.NNZ != m.NNZ() {
		t.Errorf("echoed shape %dx%d/%d, want %dx%d/%d", pr.Rows, pr.Cols, pr.NNZ, m.Rows, m.Cols, m.NNZ())
	}
}

func TestPredictRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, nil)

	status, _, _ := postPredict(t, ts.URL, []byte("this is not a matrix"))
	if status != http.StatusBadRequest {
		t.Errorf("garbage body: status = %d, want 400", status)
	}

	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatalf("GET /predict: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status = %d, want 405", resp.StatusCode)
	}
}

func TestPredictBodyCap(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 200 })
	body := mmBytes(t, testMatrix(t))
	if len(body) <= 200 {
		t.Fatalf("test matrix serializes to %d bytes, need > 200", len(body))
	}
	status, _, _ := postPredict(t, ts.URL, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", status)
	}
}

// TestBadLineBeforeBodyCap pins the order of the two body refusals: a body
// with a bad line before MaxBodyBytes that also runs past the cap is
// answered 400 for the bad line, by /predict and by the streamed /matrix
// read alike, since the parse meets the line before the read meets the cap.
func TestBadLineBeforeBodyCap(t *testing.T) {
	entries := mmBytes(t, testMatrix(t))
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = int64(len(entries)) })
	header, rest, _ := bytes.Cut(entries, []byte("\n"))
	body := append(append(append(header, "\n1 1 zebra\n"...), rest...), bytes.Repeat([]byte("1 1 1\n"), 4096)...)
	for _, path := range []string{"/predict", "/matrix"} {
		if status, data := rawPost(t, ts.URL, path, body, strconv.Itoa(len(body))); status != http.StatusBadRequest ||
			!strings.Contains(string(data), "zebra") {
			t.Errorf("%s: bad line before the cap, body past it: %d %s, want 400 naming the line", path, status, data)
		}
	}
}

// TestPredictIgnoresTailPastBodyCap pins the reader's rule that nothing
// after the declared entries counts, read errors included: a body whose
// entries are complete but whose trailing junk runs past MaxBodyBytes still
// answers 200, however far the reader reads ahead.
func TestPredictIgnoresTailPastBodyCap(t *testing.T) {
	entries := mmBytes(t, testMatrix(t))
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = int64(len(entries)) + 16 })
	body := append(append([]byte(nil), entries...), strings.Repeat("junk past the declared entries\n", 1<<13)...)
	status, pr, _ := postPredict(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("complete entries, junk past the cap: status = %d, want 200", status)
	}
	if m := testMatrix(t); pr.NNZ != m.NNZ() {
		t.Errorf("nnz = %d, want %d", pr.NNZ, m.NNZ())
	}
}

// TestPredictBadLineInFinalBlock sends a body of many read blocks whose
// last entry line is bad: the answer is 400 with the message the original
// line-by-line reader gave.
func TestPredictBadLineInFinalBlock(t *testing.T) {
	_, ts := newTestServer(t, nil)
	m := gen.Uniform(rand.New(rand.NewSource(3)), 4000, 8)
	body := mmBytes(t, m)
	if len(body) < 4<<16 {
		t.Fatalf("body of %d bytes spans too few 64 KiB blocks", len(body))
	}
	last := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
	body = append(body[:last], "4000 1 zebra\n"...)
	resp, err := http.Post(ts.URL+"/predict", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decoding the error: %v", err)
	}
	const want = `matrix: bad value "zebra": strconv.ParseFloat: parsing "zebra": invalid syntax`
	if resp.StatusCode != http.StatusBadRequest || er.Error != want {
		t.Errorf("bad final line: %d %q, want 400 %q", resp.StatusCode, er.Error, want)
	}
}

// TestDeclaredSizeBoundedByBodyCap pins the read limits the server derives
// from MaxBodyBytes, one declared row or column per body byte: a tiny
// header declaring 2^31-1 rows and columns is refused 400 by all three
// body endpoints, before it can allocate for them, and a header exactly at
// the limit is accepted.
func TestDeclaredSizeBoundedByBodyCap(t *testing.T) {
	const capBytes = 4096
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = capBytes })
	body := func(rows, cols int) string {
		return fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%d %d 0\n", rows, cols)
	}
	for _, tc := range []struct {
		body   string
		status int
	}{
		{body(math.MaxInt32, math.MaxInt32), http.StatusBadRequest},
		{body(capBytes+1, capBytes), http.StatusBadRequest},
		{body(capBytes, capBytes+1), http.StatusBadRequest},
		{body(capBytes, capBytes), http.StatusOK},
	} {
		inline, err := json.Marshal(spmvRequest{Matrix: tc.body})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []struct {
			path string
			body []byte
		}{{"/predict", []byte(tc.body)}, {"/matrix", []byte(tc.body)}, {"/spmv", inline}} {
			if status, data := rawPost(t, ts.URL, req.path, req.body, strconv.Itoa(len(req.body))); status != tc.status {
				t.Errorf("%s %q: %d %s, want %d", req.path, tc.body, status, data, tc.status)
			}
		}
	}
}

func TestPredictReadLimits(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := []byte("%%MatrixMarket matrix coordinate real general\n3000000000 4 1\n1 1 1.0\n")
	status, _, _ := postPredict(t, ts.URL, body) // rows past the MaxInt32 default limit
	if status != http.StatusBadRequest {
		t.Errorf("over-limit matrix: status = %d, want 400", status)
	}
}

// TestLoadShed drives a slow predictor (serve.predict.delay) with more
// concurrency than MaxInFlight+MaxQueue admits: the overflow must shed with
// 429 + Retry-After while admitted requests still answer 200.
func TestLoadShed(t *testing.T) {
	armFaults(t, "serve.predict.delay:delay:d=250ms:times=all")
	_, ts := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
		c.QueueWait = 30 * time.Millisecond
	})
	body := mmBytes(t, testMatrix(t))

	const n = 6
	statuses := make([]int, n)
	headers := make([]http.Header, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, headers[i] = postPredict(t, ts.URL, body)
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if headers[i].Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After header")
			}
		default:
			t.Errorf("request %d: status = %d, want 200 or 429", i, st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Errorf("ok=%d shed=%d; want both admitted and shed requests under overload", ok, shed)
	}
}

// TestDegradedOnPredictError is the acceptance scenario: with
// serve.predict.error:times=all, every well-formed request to every POST
// endpoint still gets a 200 with the CSR fallback, marked degraded. The
// degraded inspection is never cached, and /spmv still computes the right y.
func TestDegradedOnPredictError(t *testing.T) {
	armFaults(t, "serve.predict.error:error:times=all")
	m := testMatrix(t)
	body := mmBytes(t, m)
	want := make([]float64, m.Rows)
	m.SpMV(want, matrix.Ones(m.Cols))
	for _, endpoint := range []string{"/predict", "/matrix", "/spmv"} {
		// A fresh server per endpoint: three failures stay under the
		// default breaker threshold, so every request reaches the predictor.
		s, ts := newTestServer(t, nil)
		for i := 0; i < 3; i++ {
			var method, reason string
			var degraded bool
			switch endpoint {
			case "/predict":
				status, pr, _ := postPredict(t, ts.URL, body)
				if status != http.StatusOK {
					t.Fatalf("%s request %d: status = %d, want 200 (degraded, never failed)", endpoint, i, status)
				}
				method, reason, degraded = pr.Method, pr.Reason, pr.Degraded
			case "/matrix":
				status, mr := postMatrix(t, ts.URL, body)
				if status != http.StatusOK || mr.Stored || mr.Fingerprint == "" {
					t.Fatalf("%s request %d: status=%d resp=%+v, want 200 unstored", endpoint, i, status, mr)
				}
				method, reason, degraded = mr.Method, mr.Reason, mr.Degraded
			case "/spmv":
				status, sr, raw := postSpMV(t, ts.URL, spmvRequest{Matrix: string(body)})
				if status != http.StatusOK {
					t.Fatalf("%s request %d: status=%d body=%s, want 200", endpoint, i, status, raw)
				}
				if d := matrix.MaxAbsDiff(sr.Y, want); d > 1e-9 {
					t.Fatalf("%s request %d: degraded result off by %g", endpoint, i, d)
				}
				method, reason, degraded = sr.Method, sr.Reason, sr.Degraded
			}
			if !degraded || reason != reasonPredictError {
				t.Fatalf("%s request %d: degraded=%v reason=%q, want predict-error", endpoint, i, degraded, reason)
			}
			if !strings.Contains(method, "CSR") {
				t.Errorf("%s request %d: fallback method = %q, want CSR", endpoint, i, method)
			}
		}
		if st := s.Sessions().Stats(); st.Entries != 0 {
			t.Fatalf("%s: degraded inspections were cached: %+v", endpoint, st)
		}
	}
}

// TestDegradedOnDeadline stalls the predictor past the request timeout; the
// response must degrade with reason "deadline" rather than hang or fail.
func TestDegradedOnDeadline(t *testing.T) {
	armFaults(t, "serve.predict.delay:delay:d=200ms")
	_, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = 40 * time.Millisecond })
	status, pr, _ := postPredict(t, ts.URL, mmBytes(t, testMatrix(t)))
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !pr.Degraded || pr.Reason != reasonDeadline {
		t.Fatalf("got degraded=%v reason=%q, want deadline degradation", pr.Degraded, pr.Reason)
	}
}

// TestBreakerTripAndRecover walks the full automaton over HTTP: consecutive
// predictor failures trip the breaker (fallback-only), the cooldown half-
// opens it, and a successful probe closes it again.
func TestBreakerTripAndRecover(t *testing.T) {
	armFaults(t, "serve.predict.error:error:times=2")
	s, ts := newTestServer(t, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = 50 * time.Millisecond
	})
	body := mmBytes(t, testMatrix(t))

	for i := 0; i < 2; i++ {
		_, pr, _ := postPredict(t, ts.URL, body)
		if !pr.Degraded || pr.Reason != reasonPredictError {
			t.Fatalf("failure %d: degraded=%v reason=%q", i, pr.Degraded, pr.Reason)
		}
	}
	if st := s.breaker.currentState(); st != breakerOpen {
		t.Fatalf("after %d failures breaker is %s, want open", 2, st)
	}
	// Open circuit: the fault is exhausted, but the predictor must not run.
	_, pr, _ := postPredict(t, ts.URL, body)
	if !pr.Degraded || pr.Reason != reasonBreakerOpen {
		t.Fatalf("open circuit: degraded=%v reason=%q, want breaker-open", pr.Degraded, pr.Reason)
	}
	time.Sleep(60 * time.Millisecond)
	// Cooldown elapsed: this request is the half-open probe and succeeds.
	_, pr, _ = postPredict(t, ts.URL, body)
	if pr.Degraded {
		t.Fatalf("probe after cooldown degraded: %+v", pr)
	}
	if st := s.breaker.currentState(); st != breakerClosed {
		t.Fatalf("after successful probe breaker is %s, want closed", st)
	}
}

// TestHandlerPanicRecovered injects a panic into each POST handler: that
// request gets a 500, and the server keeps answering afterwards.
func TestHandlerPanicRecovered(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := mmBytes(t, testMatrix(t))
	post := map[string]func() int{
		"/predict": func() int { status, _, _ := postPredict(t, ts.URL, body); return status },
		"/matrix":  func() int { status, _ := postMatrix(t, ts.URL, body); return status },
		"/spmv": func() int {
			status, _, _ := postSpMV(t, ts.URL, spmvRequest{Matrix: string(body)})
			return status
		},
	}
	for _, endpoint := range []string{"/predict", "/matrix", "/spmv"} {
		armFaults(t, "serve.handler.panic:panic")
		if status := post[endpoint](); status != http.StatusInternalServerError {
			t.Fatalf("%s panicking request: status = %d, want 500", endpoint, status)
		}
		if status := post[endpoint](); status != http.StatusOK {
			t.Fatalf("%s request after panic: status=%d, want 200", endpoint, status)
		}
	}
	if status, pr, _ := postPredict(t, ts.URL, body); status != http.StatusOK || pr.Degraded {
		t.Fatalf("request after panics: status=%d degraded=%v, want healthy 200", status, pr.Degraded)
	}
}

// TestReloadRollback corrupts the model file on disk and forces a reload:
// the swap must be rejected, the previous generation must keep serving, and
// restoring a good file must make reload succeed again.
func TestReloadRollback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "models.json")
	good, err := os.ReadFile(sharedModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, func(c *Config) { c.ModelPath = path })
	want := s.ModelCount()
	body := mmBytes(t, testMatrix(t))

	if err := os.WriteFile(path, []byte("{ torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil || !strings.Contains(err.Error(), "reload rejected") {
		t.Fatalf("Reload on corrupt file: err = %v, want rejection", err)
	}
	if got := s.ModelCount(); got != want {
		t.Fatalf("after rejected reload: %d models, want %d (rollback)", got, want)
	}
	if status, pr, _ := postPredict(t, ts.URL, body); status != http.StatusOK || pr.Degraded {
		t.Fatalf("serving after rejected reload: status=%d degraded=%v", status, pr.Degraded)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatalf("Reload on restored file: %v", err)
	}
	if got := s.ModelCount(); got != want {
		t.Fatalf("after good reload: %d models, want %d", got, want)
	}
}

// TestReloadInjectedCorruption exercises the serve.reload.corrupt site: the
// validation failure is injected, so even a pristine file is rejected and
// the serving generation survives.
func TestReloadInjectedCorruption(t *testing.T) {
	armFaults(t, "serve.reload.corrupt:error")
	s, ts := newTestServer(t, nil)
	if err := s.Reload(); err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Reload under injection: err = %v, want ErrInjected", err)
	}
	// The clause fired once; the next reload sees the real (valid) file.
	if err := s.Reload(); err != nil {
		t.Fatalf("Reload after injection: %v", err)
	}
	if status, _, _ := postPredict(t, ts.URL, mmBytes(t, testMatrix(t))); status != http.StatusOK {
		t.Fatalf("serving after reload cycle: status = %d", status)
	}
}

func TestHealthEndpoints(t *testing.T) {
	s, ts := newTestServer(t, nil)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	if st, body := get("/healthz"); st != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", st, body)
	}
	if st, body := get("/readyz"); st != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("/readyz: %d %q", st, body)
	}
	s.SetReady(false)
	if st, _ := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d, want 503", st)
	}
	s.SetReady(true)

	postPredict(t, ts.URL, mmBytes(t, testMatrix(t)))
	if st, body := get("/metricz"); st != http.StatusOK ||
		!strings.Contains(body, "serve.requests_total") ||
		!strings.Contains(body, "serve.request_seconds") {
		t.Errorf("/metricz: %d, missing serve counters in %q", st, body)
	}
}

// TestServeDrain runs the full lifecycle: Serve on a real listener, a live
// request, then cancellation — Serve must return ctx.Err() (the CLI's exit
// 130) and leave no goroutines behind.
func TestServeDrain(t *testing.T) {
	s, err := New(Config{
		ModelPath:    sharedModelPath,
		DrainTimeout: time.Second,
		ReloadPoll:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The runtime starts a permanent os/signal.loop goroutine on the first
	// Notify; prime it so the leak check below counts only our goroutines.
	sigWarm := make(chan os.Signal, 1)
	signal.Notify(sigWarm, syscall.SIGHUP)
	signal.Stop(sigWarm)
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	client := &http.Client{Transport: &http.Transport{}}
	url := "http://" + ln.Addr().String()
	resp, err := client.Post(url+"/predict", "text/plain", bytes.NewReader(mmBytes(t, testMatrix(t))))
	if err != nil {
		t.Fatalf("predict against live listener: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	client.CloseIdleConnections()

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after drain: %d > %d\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

func TestAdmissionControl(t *testing.T) {
	a := newAdmission(1, 1, 25*time.Millisecond)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Queue has room: this waiter times out after maxWait.
	start := time.Now()
	if err := a.acquire(ctx); !errors.Is(err, errSaturated) {
		t.Fatalf("queued acquire: err = %v, want errSaturated", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Errorf("queued acquire returned in %v, want ~25ms wait", time.Since(start))
	}

	// Fill the queue with a real waiter, then the next acquire sheds fast.
	release := make(chan struct{})
	go func() {
		<-release
		a.release()
	}()
	waiting := make(chan error, 1)
	go func() { waiting <- a.acquire(ctx) }()
	for a.waiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(ctx); !errors.Is(err, errSaturated) {
		t.Fatalf("acquire with full queue: err = %v, want immediate errSaturated", err)
	}
	close(release)
	if err := <-waiting; err != nil {
		t.Fatalf("queued waiter after release: %v", err)
	}
	a.release()

	// A cancelled caller gets ctx.Err, not a shed.
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := a.acquire(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: err = %v, want context.Canceled", err)
	}
	a.release()
}

func TestBreakerAutomaton(t *testing.T) {
	b := newBreaker(2, time.Minute)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }

	if use, probe := b.allow(); !use || probe {
		t.Fatalf("closed allow = (%v, %v), want (true, false)", use, probe)
	}
	b.report(false, false)
	b.report(false, false)
	if st := b.currentState(); st != breakerOpen {
		t.Fatalf("after threshold failures: %s, want open", st)
	}
	if use, _ := b.allow(); use {
		t.Fatal("open circuit within cooldown allowed the predictor")
	}

	now = now.Add(time.Minute)
	use, probe := b.allow()
	if !use || !probe {
		t.Fatalf("post-cooldown allow = (%v, %v), want probe (true, true)", use, probe)
	}
	if use, _ := b.allow(); use {
		t.Fatal("second request ran the predictor while a probe was in flight")
	}
	b.report(false, true)
	if st := b.currentState(); st != breakerOpen {
		t.Fatalf("after failed probe: %s, want open again", st)
	}

	now = now.Add(time.Minute)
	if use, probe := b.allow(); !use || !probe {
		t.Fatal("no second probe after another cooldown")
	}
	b.report(true, true)
	if st := b.currentState(); st != breakerClosed {
		t.Fatalf("after successful probe: %s, want closed", st)
	}
	if use, probe := b.allow(); !use || probe {
		t.Fatalf("closed-again allow = (%v, %v), want (true, false)", use, probe)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxInFlight <= 0 || c.MaxQueue <= 0 || c.QueueWait <= 0 ||
		c.RequestTimeout <= 0 || c.MaxBodyBytes <= 0 || c.BreakerThreshold <= 0 ||
		c.BreakerCooldown <= 0 || c.ReloadPoll <= 0 || c.DrainTimeout <= 0 {
		t.Fatalf("zero config did not fill defaults: %+v", c)
	}
}

func TestNewRejectsBadModelPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.json")
	_, err := New(Config{ModelPath: missing})
	if err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("New with missing model: err = %v, want path in message", err)
	}
}
