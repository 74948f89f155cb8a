package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wise/internal/session"
)

// client sends one stream's ops to a target and checks every answer.
type client struct {
	id     int
	w      *workload
	seed   int64
	bodies [][]byte
	exp    []expected
	t      target
	rec    *recorder   // op spans in the traced replay; nil otherwise
	ring   []ringEntry // ingest: this client's newest uploads, oldest first
}

type ringEntry struct {
	fp   string
	item int
}

// result is the outcome of one op.
type result struct {
	kind     opKind
	degraded bool
	err      error // transport error, non-2xx status, or wrong answer
}

func (c *client) do(ctx context.Context, o op) result {
	c.rec.beginOp("op." + o.kind.String())
	defer c.rec.end()
	item, fp := o.item, ""
	var a wireResponse
	var err error
	switch o.kind {
	case opPredict:
		a, err = c.t.predict(ctx, c.bodies[item])
	case opUpload:
		body := c.bodies[item]
		fp = c.exp[item].fp
		if c.w.mix == mixIngest {
			body = nonceBody(body, c.seed, c.id, o.nonce)
			fp = session.Fingerprint(body)
			c.ring = append(c.ring, ringEntry{fp: fp, item: item})
			if len(c.ring) > ringSize {
				c.ring = c.ring[1:]
			}
		}
		a, err = c.t.upload(ctx, body)
	case opSpMV:
		fp = c.exp[item].fp
		if c.w.mix == mixIngest {
			e := c.ring[len(c.ring)-1-o.back]
			item, fp = e.item, e.fp
		}
		a, err = c.t.spmv(ctx, fp, c.w.iterations)
	}
	if err == nil {
		err = check(o.kind, a, c.exp[item], fp)
	}
	return result{kind: o.kind, degraded: err == nil && a.Degraded, err: err}
}

// httpTarget is wise-serve over HTTP.
type httpTarget struct {
	client *http.Client
	url    string
}

// newHTTPTarget returns a target whose transport opens at most conns
// connections to the server.
func newHTTPTarget(url string, conns int) *httpTarget {
	return &httpTarget{url: url, client: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (h *httpTarget) close() { h.client.CloseIdleConnections() }

func (h *httpTarget) predict(ctx context.Context, body []byte) (wireResponse, error) {
	return h.post(ctx, "/predict", "text/plain", body)
}

func (h *httpTarget) upload(ctx context.Context, body []byte) (wireResponse, error) {
	return h.post(ctx, "/matrix", "text/plain", body)
}

func (h *httpTarget) spmv(ctx context.Context, fp string, iterations int) (wireResponse, error) {
	return h.post(ctx, "/spmv", "application/json",
		fmt.Appendf(nil, `{"fingerprint":%q,"iterations":%d}`, fp, iterations))
}

func (h *httpTarget) post(ctx context.Context, path, contentType string, body []byte) (wireResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+path, bytes.NewReader(body))
	if err != nil {
		return wireResponse{}, err
	}
	req.Header.Set("Content-Type", contentType)
	data, status, err := h.do(req)
	if err != nil {
		return wireResponse{}, err
	}
	if status != http.StatusOK {
		return wireResponse{}, fmt.Errorf("POST %s: status %d: %.200s", path, status, data)
	}
	var a wireResponse
	if err := json.Unmarshal(data, &a); err != nil {
		return wireResponse{}, fmt.Errorf("POST %s: decoding answer: %w", path, err)
	}
	return a, nil
}

// do sends a request and reads the whole answer.
func (h *httpTarget) do(req *http.Request) ([]byte, int, error) {
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: reading answer: %w", req.Method, req.URL.Path, err)
	}
	return data, resp.StatusCode, nil
}

func (h *httpTarget) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url+path, nil)
	if err != nil {
		return nil, 0, err
	}
	return h.do(req)
}

// clock is the time source of the loops; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sample is one op as the load generator saw it.
type sample struct {
	result
	latency time.Duration // from due time (open loop) or send (closed loop) to answer
	service time.Duration // from send to answer
	// lag is how late the generator itself ran: in the open loop, how late a
	// sender woke for an op it was idle for; in the closed loop, the
	// client's gap between an answer and its next send.
	lag  time.Duration
	done time.Duration // answer time since the loop started
}

// closedLoop runs clients back-to-back callers: client c sends its ops
// first, first+1, ... each when the previous answer is in, until it has
// sent counts[c] ops or, with counts nil, until the clock passes until.
// It returns each client's samples.
func closedLoop(ctx context.Context, clk clock, clients, first int, counts []int, until time.Time,
	do func(c, i int) result) [][]sample {
	start := clk.Now()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := start
			for i := first; counts == nil || i < first+counts[c]; i++ {
				if ctx.Err() != nil || (counts == nil && !clk.Now().Before(until)) {
					return
				}
				sent := clk.Now()
				r := do(c, i)
				done := clk.Now()
				per[c] = append(per[c], sample{result: r, latency: done.Sub(sent), service: done.Sub(sent),
					lag: sent.Sub(prev), done: done.Sub(start)})
				prev = done
			}
		}(c)
	}
	wg.Wait()
	return per
}

// openLoop sends ops first, first+1, ... of the shared stream, op first+k
// due at start + k/rate, for every k due before until. senders goroutines
// each take the next op when they are free, so at most senders ops are in
// flight; the rest wait in the generator. Latency runs from the due time,
// so a stalled answer adds to the latency of every op queued behind it. An
// op that would start later than until+grace is not sent and counts in
// unsent.
func openLoop(ctx context.Context, clk clock, senders int, rate float64, start, until time.Time, grace time.Duration,
	first int, do func(s, j int) result) (samples []sample, unsent int) {
	dueAt := func(k int) time.Time { return start.Add(time.Duration(float64(k) / rate * float64(time.Second))) }
	n := 0
	for dueAt(n).Before(until) {
		n++
	}
	var next atomic.Int64
	per := make([][]sample, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n || ctx.Err() != nil {
					return
				}
				due := dueAt(k)
				var lag time.Duration
				if now := clk.Now(); now.Before(due) {
					clk.SleepUntil(due)
					lag = clk.Now().Sub(due)
				} else if now.After(until.Add(grace)) {
					return
				}
				sent := clk.Now()
				r := do(s, first+k)
				done := clk.Now()
				per[s] = append(per[s], sample{result: r, latency: done.Sub(due), service: done.Sub(sent),
					lag: lag, done: done.Sub(start)})
			}
		}(s)
	}
	wg.Wait()
	samples = flatten(per)
	return samples, n - len(samples)
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// firstErrors returns up to n distinct failure messages of the samples.
func firstErrors(samples []sample, n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range samples {
		if s.err == nil || len(out) == n {
			continue
		}
		msg := fmt.Sprintf("%s: %v", s.kind, s.err)
		if !seen[msg] {
			seen[msg] = true
			out = append(out, msg)
		}
	}
	return out
}
