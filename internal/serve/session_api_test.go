package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wise/internal/matrix"
	"wise/internal/resilience"
	"wise/internal/session"
)

func postMatrix(t *testing.T, url string, body []byte) (int, matrixResponse) {
	t.Helper()
	resp, err := http.Post(url+"/matrix", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /matrix: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /matrix response: %v", err)
	}
	var mr matrixResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatalf("decoding /matrix response %q: %v", data, err)
		}
	}
	return resp.StatusCode, mr
}

func postSpMV(t *testing.T, url string, req spmvRequest) (int, spmvResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("encoding /spmv request: %v", err)
	}
	resp, err := http.Post(url+"/spmv", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /spmv: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /spmv response: %v", err)
	}
	var sr spmvResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("decoding /spmv response %q: %v", data, err)
		}
	}
	return resp.StatusCode, sr, string(data)
}

// TestMatrixFingerprintWorkflow walks the full stateful quickstart: upload,
// warm predict by fingerprint, and the amortization contract — repeated
// warm calls never rerun the inspector (asserted via per-store counters).
func TestMatrixFingerprintWorkflow(t *testing.T) {
	s, ts := newTestServer(t, nil)
	body := mmBytes(t, testMatrix(t))

	status, mr := postMatrix(t, ts.URL, body)
	if status != http.StatusOK || !mr.Stored || mr.Cached || mr.Fingerprint == "" || mr.Degraded {
		t.Fatalf("first upload: status=%d resp=%+v", status, mr)
	}
	status, mr2 := postMatrix(t, ts.URL, body)
	if status != http.StatusOK || !mr2.Cached || mr2.Fingerprint != mr.Fingerprint {
		t.Fatalf("re-upload: status=%d resp=%+v", status, mr2)
	}

	// Warm predict by fingerprint: query param and header forms.
	for _, via := range []string{"query", "header"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/predict", nil)
		if err != nil {
			t.Fatal(err)
		}
		if via == "query" {
			req.URL.RawQuery = "fp=" + mr.Fingerprint
		} else {
			req.Header.Set("X-Wise-Fingerprint", mr.Fingerprint)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var pr predictResponse
		if err := json.Unmarshal(data, &pr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("warm predict via %s: status=%d body=%s err=%v", via, resp.StatusCode, data, err)
		}
		if !pr.Cached || pr.Method != mr.Method || pr.Rows == 0 {
			t.Fatalf("warm predict via %s: %+v, want cached answer matching upload %+v", via, pr, mr)
		}
	}

	// Unknown fingerprint: 404, upload first.
	resp, err := http.Post(ts.URL+"/predict?fp=deadbeef", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status=%d, want 404", resp.StatusCode)
	}

	// Amortization: one upload + three warm calls ran exactly one inspector
	// pass and zero format rebuilds (the artifact was built eagerly once).
	st := s.Sessions().Stats()
	if st.Builds != 1 || st.Converts != 0 {
		t.Fatalf("warm calls reran preprocessing: %+v", st)
	}
	if st.PinnedEntries != 0 {
		t.Fatalf("request pins leaked: %+v", st)
	}
}

// TestStreamedUploadFingerprint pins the streamed, hashed /matrix read to
// the fingerprint of the exact body bytes, for bodies whose bytes the parse
// does not all use: comment lines, CRLF line ends, junk after the declared
// entries, no final newline. The inline /spmv matrix takes the same path.
// A cached re-upload answers cached with the same selection, and
// concurrent uploads of one new body build once.
func TestStreamedUploadFingerprint(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 16
		c.QueueWait = 2 * time.Second
		c.RequestTimeout = 10 * time.Second
	})
	entries := string(mmBytes(t, testMatrix(t)))
	header, rest, _ := strings.Cut(entries, "\n")
	for _, tc := range []struct{ name, body string }{
		{"comments", header + "\n% a comment\n%\n" + rest + "% trailing comment\n"},
		{"crlf", strings.ReplaceAll(entries, "\n", "\r\n")},
		{"junk after the entries", entries + strings.Repeat("junk past the declared entries\n", 3000)},
		{"no final newline", strings.TrimSuffix(entries, "\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := session.Fingerprint([]byte(tc.body))
			status, mr := postMatrix(t, ts.URL, []byte(tc.body))
			if status != http.StatusOK || mr.Fingerprint != want || mr.Cached {
				t.Fatalf("/matrix: status %d, fingerprint %s, cached %v; want 200, %s, false", status, mr.Fingerprint, mr.Cached, want)
			}
			status, again := postMatrix(t, ts.URL, []byte(tc.body))
			if status != http.StatusOK || !again.Cached || again.Fingerprint != want ||
				again.Method != mr.Method || again.Index != mr.Index || again.NNZ != mr.NNZ {
				t.Fatalf("cached re-upload: status %d, %+v; first upload %+v", status, again, mr)
			}
			// An inline matrix not yet uploaded: a comment after the
			// header makes it a body of its own.
			inline := strings.Replace(tc.body, "\n", "\n% inline\n", 1)
			status, sr, data := postSpMV(t, ts.URL, spmvRequest{Matrix: inline})
			if status != http.StatusOK || sr.Fingerprint != session.Fingerprint([]byte(inline)) || sr.Warm {
				t.Fatalf("inline /spmv: status %d, %s", status, data)
			}
		})
	}

	// Concurrent uploads of one new body run one build.
	body := []byte(entries + "% concurrent\n")
	before := s.Sessions().Stats().Builds
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, mr := postMatrix(t, ts.URL, body); status != http.StatusOK || mr.Fingerprint != session.Fingerprint(body) {
				t.Errorf("concurrent upload: status %d, %+v", status, mr)
			}
		}()
	}
	wg.Wait()
	if builds := s.Sessions().Stats().Builds - before; builds != 1 {
		t.Errorf("8 concurrent uploads of one body ran %d builds, want 1", builds)
	}
}

// TestSpMVWarmColdCorrectness is the execution half of the amortization
// proof: a cold inline /spmv pays the inspector once, every subsequent call
// (inline or by fingerprint) is warm, skips parse+extract+convert entirely
// per the store counters, and all answers match the reference serial SpMV.
func TestSpMVWarmColdCorrectness(t *testing.T) {
	s, ts := newTestServer(t, nil)
	m := testMatrix(t)
	body := mmBytes(t, m)

	want := make([]float64, m.Rows)
	m.SpMV(want, matrix.Ones(m.Cols))

	status, cold, raw := postSpMV(t, ts.URL, spmvRequest{Matrix: string(body)})
	if status != http.StatusOK || cold.Warm || cold.Degraded || cold.Fingerprint == "" {
		t.Fatalf("cold /spmv: status=%d resp=%+v body=%s", status, cold, raw)
	}
	if d := matrix.MaxAbsDiff(cold.Y, want); d > 1e-9 {
		t.Fatalf("cold /spmv result off by %g", d)
	}

	status, warm1, _ := postSpMV(t, ts.URL, spmvRequest{Matrix: string(body)})
	if status != http.StatusOK || !warm1.Warm {
		t.Fatalf("repeat inline /spmv not warm: %+v", warm1)
	}
	status, warm2, _ := postSpMV(t, ts.URL, spmvRequest{Fingerprint: cold.Fingerprint})
	if status != http.StatusOK || !warm2.Warm {
		t.Fatalf("fingerprint /spmv not warm: %+v", warm2)
	}
	if d := matrix.MaxAbsDiff(warm2.Y, want); d > 1e-9 {
		t.Fatalf("warm /spmv result off by %g", d)
	}

	// Iterated execution: y = A^2 * 1, square matrix.
	status, iter, _ := postSpMV(t, ts.URL, spmvRequest{Fingerprint: cold.Fingerprint, Iterations: 2})
	if status != http.StatusOK || iter.Iterations != 2 {
		t.Fatalf("iterated /spmv: status=%d resp=%+v", status, iter)
	}
	want2 := make([]float64, m.Rows)
	m.SpMV(want2, want)
	if d := matrix.MaxAbsDiff(iter.Y, want2); d > 1e-6 {
		t.Fatalf("A^2 x off by %g", d)
	}

	// The whole sequence ran exactly one inspector pass and zero rebuilds:
	// warm execution skipped parse, extraction, and conversion.
	st := s.Sessions().Stats()
	if st.Builds != 1 || st.Converts != 0 {
		t.Fatalf("warm /spmv reran preprocessing: %+v", st)
	}
	if got := spmvWarm.Value(); got < 3 {
		t.Fatalf("serve.spmv_warm = %d, want >= 3", got)
	}
}

func TestSpMVValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := string(mmBytes(t, testMatrix(t)))

	cases := []struct {
		name string
		req  spmvRequest
		want int
	}{
		{"neither source", spmvRequest{}, http.StatusBadRequest},
		{"both sources", spmvRequest{Fingerprint: "ab", Matrix: body}, http.StatusBadRequest},
		{"bad vector length", spmvRequest{Matrix: body, X: []float64{1, 2, 3}}, http.StatusBadRequest},
		{"iteration cap", spmvRequest{Matrix: body, Iterations: spmvMaxIterations + 1}, http.StatusBadRequest},
		{"unknown fingerprint", spmvRequest{Fingerprint: "deadbeef"}, http.StatusNotFound},
		{"unparseable matrix", spmvRequest{Matrix: "not a matrix"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, _, raw := postSpMV(t, ts.URL, tc.req); status != tc.want {
			t.Errorf("%s: status=%d body=%s, want %d", tc.name, status, raw, tc.want)
		}
	}
}

// TestSpMVExecPanicAnswered500 arms the execution fault site over HTTP: the
// panic is converted to a 500 by the handler's recovery, and the session and
// server keep answering afterwards.
func TestSpMVExecPanicAnswered500(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := string(mmBytes(t, testMatrix(t)))

	status, cold, _ := postSpMV(t, ts.URL, spmvRequest{Matrix: body})
	if status != http.StatusOK {
		t.Fatalf("cold /spmv: status=%d", status)
	}
	armFaults(t, "session.exec.panic:panic")
	if status, _, raw := postSpMV(t, ts.URL, spmvRequest{Fingerprint: cold.Fingerprint}); status != http.StatusInternalServerError {
		t.Fatalf("armed /spmv: status=%d body=%s, want 500", status, raw)
	}
	status, after, _ := postSpMV(t, ts.URL, spmvRequest{Fingerprint: cold.Fingerprint})
	if status != http.StatusOK || !after.Warm {
		t.Fatalf("post-panic /spmv: status=%d resp=%+v, want warm 200", status, after)
	}
}

// TestSpMVNonFiniteAnswered422 holds /spmv to its rule for results JSON
// cannot carry: a product whose y_norm is not finite is refused with 422, an
// error naming the non-finite result, and a serve.requests_rejected count,
// never a 5xx. It covers chained iterations that overflow to +Inf, an
// inline body with an inf value, and the same overflow warm by fingerprint;
// a finite y whose sum of squares alone overflows is answered 200.
func TestSpMVNonFiniteAnswered422(t *testing.T) {
	_, ts := newTestServer(t, nil)
	overflow := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e200\n2 2 1e200\n"
	infValue := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 inf\n"
	status, mr := postMatrix(t, ts.URL, []byte(overflow))
	if status != http.StatusOK || mr.Fingerprint == "" {
		t.Fatalf("upload: status=%d resp=%+v", status, mr)
	}
	cases := []struct {
		name string
		req  spmvRequest
	}{
		{"overflow after 2 iterations", spmvRequest{Matrix: overflow, Iterations: 2}},
		{"inf value", spmvRequest{Matrix: infValue}},
		{"warm overflow", spmvRequest{Fingerprint: mr.Fingerprint, Iterations: 2}},
	}
	for _, tc := range cases {
		rejected, unencodable := requestsRejected.Value(), responsesUnencodable.Value()
		status, _, raw := postSpMV(t, ts.URL, tc.req)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status=%d body=%q, want 422", tc.name, status, raw)
		}
		var er errorResponse
		if err := json.Unmarshal([]byte(raw), &er); err != nil || !strings.Contains(er.Error, "not finite") {
			t.Fatalf("%s: body=%q is not a JSON error naming the non-finite result (%v)", tc.name, raw, err)
		}
		if got := requestsRejected.Value() - rejected; got != 1 {
			t.Errorf("%s: serve.requests_rejected moved by %d, want 1", tc.name, got)
		}
		if got := responsesUnencodable.Value() - unencodable; got != 0 {
			t.Errorf("%s: serve.responses_unencodable moved by %d, want 0", tc.name, got)
		}
	}
	// One iteration of the 1e200 diagonal leaves y finite; its sum of
	// squares overflows, but the scaled norm is finite, so it is answered.
	status, sr, raw := postSpMV(t, ts.URL, spmvRequest{Matrix: overflow})
	if want := 1.4142135623730951e200; status != http.StatusOK || math.Abs(sr.YNorm-want) > 1e-15*want {
		t.Fatalf("one iteration: status=%d y_norm=%v body=%q, want 200 with y_norm %v", status, sr.YNorm, raw, want)
	}
}

// TestSessionSaturationDegrades shrinks the session budget below a single
// entry: every stateful request must still be answered — by the stateless
// path, marked degraded — never refused.
func TestSessionSaturationDegrades(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.SessionBytes = 1024 })
	m := testMatrix(t)
	body := mmBytes(t, m)

	status, mr := postMatrix(t, ts.URL, body)
	if status != http.StatusOK || mr.Stored || !mr.Degraded || mr.Reason != reasonSessionSaturated || mr.Fingerprint == "" {
		t.Fatalf("saturated upload: status=%d resp=%+v", status, mr)
	}

	want := make([]float64, m.Rows)
	m.SpMV(want, matrix.Ones(m.Cols))
	status, sr, raw := postSpMV(t, ts.URL, spmvRequest{Matrix: string(body)})
	if status != http.StatusOK || !sr.Degraded || sr.Warm || sr.Reason != reasonSessionSaturated {
		t.Fatalf("saturated /spmv: status=%d resp=%+v body=%s", status, sr, raw)
	}
	if d := matrix.MaxAbsDiff(sr.Y, want); d > 1e-9 {
		t.Fatalf("degraded /spmv result off by %g", d)
	}
	if st := s.Sessions().Stats(); st.Entries != 0 || st.Saturations < 2 {
		t.Fatalf("saturation stats: %+v", st)
	}
}

// TestSingleflightHTTP fires N concurrent identical uploads at the server
// and asserts the singleflight contract over HTTP: every request answered
// 200 with the same fingerprint, exactly one inspector pass.
func TestSingleflightHTTP(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 32
		c.QueueWait = 2 * time.Second
		c.RequestTimeout = 10 * time.Second
	})
	body := mmBytes(t, testMatrix(t))

	const n = 12
	var wg sync.WaitGroup
	fps := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/matrix", "text/plain", bytes.NewReader(body))
			if err != nil {
				t.Errorf("upload %d: %v", i, err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("upload %d: status=%d body=%s", i, resp.StatusCode, data)
				return
			}
			var mr matrixResponse
			if err := json.Unmarshal(data, &mr); err != nil {
				t.Errorf("upload %d: %v", i, err)
				return
			}
			fps[i] = mr.Fingerprint
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if fps[i] != fps[0] {
			t.Fatalf("upload %d got fingerprint %q, want %q", i, fps[i], fps[0])
		}
	}
	st := s.Sessions().Stats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent identical uploads ran %d inspector passes, want exactly 1: %+v", n, st.Builds, st)
	}
	if st.PinnedEntries != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// TestServeRestartRehydratesSessions is the server-level crash-safety
// proof: sessions survive a restart via the spill dir, a corrupt spill file
// is quarantined (404 for its fingerprint, clean rebuild on re-upload), and
// rehydrated sessions answer warm with correct results.
func TestServeRestartRehydratesSessions(t *testing.T) {
	dir := t.TempDir()
	mut := func(c *Config) { c.SessionSpillDir = dir }

	_, ts1 := newTestServer(t, mut)
	mA := testMatrix(t)
	bodyA := mmBytes(t, mA)
	mB := matrix.CSR{ // second, distinct session
		Rows: 3, Cols: 3,
		RowPtr: []int64{0, 1, 2, 3},
		ColIdx: []int32{0, 1, 2},
		Vals:   []float64{1, 2, 3},
	}
	bodyB := mmBytes(t, &mB)
	_, ra := postMatrix(t, ts1.URL, bodyA)
	_, rb := postMatrix(t, ts1.URL, bodyB)
	if !ra.Stored || !rb.Stored {
		t.Fatalf("uploads not stored: %+v %+v", ra, rb)
	}
	ts1.Close()

	// Corrupt B's spill file (valid envelope, garbage payload bytes) to
	// simulate on-disk damage between runs.
	if err := resilience.AtomicWriteFile(
		dir+"/"+rb.Fingerprint+".sess",
		append(resilience.Seal("wise-session", 1, []byte("garbage"))[:40], []byte("torn")...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, mut)
	st := s2.Sessions().Stats()
	if st.Recoveries != 1 || st.Quarantined != 1 {
		t.Fatalf("restart rehydration: %+v", st)
	}

	// A answers warm with a correct product, no new inspector pass.
	want := make([]float64, mA.Rows)
	mA.SpMV(want, matrix.Ones(mA.Cols))
	status, sr, raw := postSpMV(t, ts2.URL, spmvRequest{Fingerprint: ra.Fingerprint})
	if status != http.StatusOK || !sr.Warm {
		t.Fatalf("rehydrated /spmv: status=%d resp=%+v body=%s", status, sr, raw)
	}
	if d := matrix.MaxAbsDiff(sr.Y, want); d > 1e-9 {
		t.Fatalf("rehydrated result off by %g", d)
	}

	// B was quarantined: its fingerprint is unknown until re-uploaded.
	if status, _, _ := postSpMV(t, ts2.URL, spmvRequest{Fingerprint: rb.Fingerprint}); status != http.StatusNotFound {
		t.Fatalf("quarantined fingerprint: status=%d, want 404", status)
	}
	if status, rb2 := postMatrix(t, ts2.URL, bodyB); status != http.StatusOK || !rb2.Stored || rb2.Fingerprint != rb.Fingerprint {
		t.Fatalf("re-upload after quarantine: status=%d resp=%+v", status, rb2)
	}

	st = s2.Sessions().Stats()
	if st.Builds != 1 { // only B's rebuild; A never re-ran the inspector
		t.Fatalf("rehydrated serving reran the inspector: %+v", st)
	}
}

// TestRetryAfterScalesWithQueueDepth is the satellite-1 regression: the 429
// Retry-After hint must track the live queue depth, not echo the flag.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	a := newAdmission(1, 16, 2*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	defer a.release()

	if got := a.retryAfterSeconds(); got != 2 {
		t.Fatalf("empty queue: Retry-After=%d, want 2 (one maxWait)", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.acquire(ctx) // parks as a waiter until cancel
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.waiters.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never queued: %d", a.waiters.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := a.retryAfterSeconds(); got != 8 {
		t.Fatalf("3 waiters: Retry-After=%d, want 8 (4 x maxWait)", got)
	}
	cancel()
	wg.Wait()

	// The clamp: a pathological depth must not tell clients to vanish.
	b := newAdmission(1, 1024, time.Minute)
	b.waiters.Store(500)
	if got := b.retryAfterSeconds(); got != 60 {
		t.Fatalf("deep queue: Retry-After=%d, want the 60s clamp", got)
	}
}

// TestDrainReportsPinnedSessions is the satellite-2 check: the drain path
// records how many sessions in-flight executions still pinned at SIGTERM.
func TestDrainReportsPinnedSessions(t *testing.T) {
	s, err := New(Config{ModelPath: sharedModelPath, ReloadPoll: -1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	url := fmt.Sprintf("http://%s", ln.Addr())
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, mr := postMatrix(t, url, mmBytes(t, testMatrix(t)))
	if status != http.StatusOK || !mr.Stored {
		t.Fatalf("upload: status=%d resp=%+v", status, mr)
	}
	// Hold a pin across the SIGTERM instant, standing in for an in-flight
	// execution.
	ent, ok := s.Sessions().Acquire(mr.Fingerprint)
	if !ok {
		t.Fatal("session vanished")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v, want context.Canceled", err)
	}
	if got := drainPinnedSessions.Value(); got != 1 {
		t.Fatalf("serve.drain_pinned_sessions = %v at SIGTERM, want 1", got)
	}
	s.Sessions().Release(ent)
}

// rawPost sends body to path with the Content-Length header given as is, or
// with none and a chunked body when contentLength is "", and returns the
// answer's status and body.
func rawPost(t *testing.T, url, path string, body []byte, contentLength string) (int, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var req bytes.Buffer
	fmt.Fprintf(&req, "POST %s HTTP/1.1\r\nHost: wise\r\nConnection: close\r\nContent-Type: text/plain\r\n", path)
	if contentLength == "" {
		fmt.Fprintf(&req, "Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	} else {
		fmt.Fprintf(&req, "Content-Length: %s\r\n\r\n%s", contentLength, body)
	}
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestMatrixBodyContentLength pins the body read behind /matrix and /spmv
// to what the declared length lets the server read: a correct or absent
// Content-Length reads the whole body, a too-small one reads only the
// bytes it declares, and a body over the cap is refused with 413 however
// it declares its length.
func TestMatrixBodyContentLength(t *testing.T) {
	entries := mmBytes(t, testMatrix(t))
	body := append(append([]byte(nil), entries...), "% trailing comment past the entries\n"...)
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = int64(len(body)) + 64 })
	fingerprint := func(status int, data []byte) string {
		t.Helper()
		var mr matrixResponse
		if status != http.StatusOK || json.Unmarshal(data, &mr) != nil || mr.Fingerprint == "" {
			t.Fatalf("status %d, body %s", status, data)
		}
		return mr.Fingerprint
	}
	want := session.Fingerprint(body)
	short := len(entries) + 5
	for _, tc := range []struct {
		name, contentLength string
		fp                  string
	}{
		{"correct", strconv.Itoa(len(body)), want},
		{"absent", "", want},
		{"too small", strconv.Itoa(short), session.Fingerprint(body[:short])},
	} {
		if got := fingerprint(rawPost(t, ts.URL, "/matrix", body, tc.contentLength)); got != tc.fp {
			t.Errorf("%s Content-Length: fingerprint %s, want %s", tc.name, got, tc.fp)
		}
	}

	over := append(append([]byte(nil), body...), strings.Repeat("%\n", 64)...)
	for _, contentLength := range []string{strconv.Itoa(len(over)), ""} {
		if status, data := rawPost(t, ts.URL, "/matrix", over, contentLength); status != http.StatusRequestEntityTooLarge {
			t.Errorf("over the cap, Content-Length %q: status %d (%s), want 413", contentLength, status, data)
		}
	}
}
