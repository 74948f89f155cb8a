package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"wise/internal/core"
	"wise/internal/kernels"
	"wise/internal/matrix"
	"wise/internal/session"
)

// The stateful endpoints (RESILIENCE.md "Stateful serving"): POST /matrix
// prepares a session — one inspection plus format conversion — exactly once
// per distinct body and returns its sha256 fingerprint; POST /spmv executes
// the selected kernel against the cached converted artifact, warm when
// addressed by fingerprint. A saturated session store or a degraded
// inspection answers both from a request-local build that is never cached,
// marked "degraded": true — never a refusal.
//
// An upload is read once, as a stream: the parse reads the body through
// the sha256 that becomes its fingerprint, the rest of the body is hashed
// after the declared entries, and only then is the store asked for the
// fingerprint. Nothing buffers the body. So a body with a bad line before
// MaxBodyBytes is answered 400 even when it also runs past the cap; a body
// that parses but runs past the cap is answered 413. A re-upload of a
// cached body costs its parse and hash, but no extraction or conversion.

// errBadMatrix classifies a body that could not be read or parsed as the
// client's fault, mapping to 400 (or 413 past the body cap) instead of 500.
var errBadMatrix = errors.New("serve: bad matrix body")

// reasonSessionSaturated marks answers produced by a request-local build
// because the session store could not admit the entry.
const reasonSessionSaturated = "session-saturated"

// matrixResponse is the JSON body of a /matrix answer: the prediction plus
// the session handle. Stored is false for a request-local build (the
// fingerprint is still reported so the client can retry warm later);
// Cached is true when the upload hit an already-prepared session.
type matrixResponse struct {
	predictResponse
	Stored bool `json:"stored"`
}

// spmvRequest is the JSON body of a /spmv call. Exactly one of Fingerprint
// (a prepared session) or Matrix (an inline MatrixMarket text) must be set.
// X defaults to the all-ones vector; Iterations > 1 chains y = A^k x and
// requires a square matrix.
type spmvRequest struct {
	Fingerprint string    `json:"fingerprint"`
	Matrix      string    `json:"matrix"`
	X           []float64 `json:"x"`
	Iterations  int       `json:"iterations"`
}

// spmvResponse is the JSON body of a /spmv answer. Y is included for small
// results (<= spmvInlineRows rows); YNorm always summarizes it. Warm means
// the execution reused a cached converted artifact end to end.
type spmvResponse struct {
	Fingerprint string    `json:"fingerprint,omitempty"`
	Method      string    `json:"method"`
	Warm        bool      `json:"warm"`
	Degraded    bool      `json:"degraded"`
	Reason      string    `json:"reason,omitempty"`
	Rows        int       `json:"rows"`
	Cols        int       `json:"cols"`
	NNZ         int       `json:"nnz"`
	Iterations  int       `json:"iterations"`
	Y           []float64 `json:"y,omitempty"`
	YNorm       float64   `json:"y_norm"`
	ElapsedMS   float64   `json:"elapsed_ms"`
}

const (
	spmvInlineRows    = 1024  // largest result vector echoed in the response
	spmvMaxIterations = 10000 // request-abuse bound on chained multiplies
)

// errUncached marks a degraded inspection inside a session build: it is
// answered, but its fallback selection is never cached.
var errUncached = errors.New("serve: degraded inspection is not cached")

// prepared is a session build's outcome for one request body: a pinned
// store entry, or — when the store is saturated or the inspection degraded
// — a request-local build that was never inserted.
type prepared struct {
	fp     string
	ent    *session.Entry    // pinned; nil for a request-local build
	hit    bool              // ent came from the cache or another upload's build
	local  *session.Prepared // the request-local build when ent is nil
	reason string            // degradation reason of the request-local build
}

// prepare resolves a body to its session. It reads the body once: the
// parse reads it through a sha256, and the tail past the declared entries,
// up to the body cap, is hashed after it, so the fingerprint covers every
// byte of the body. Then it takes a cache hit, or a singleflight-
// deduplicated build (the predictor step + format conversion of the parsed
// matrix) inserted into the store; a saturated store or degraded
// inspection keeps the build request-local. A body that does not parse, or
// runs past the cap, wraps errBadMatrix: 400 or 413, not 500.
func (s *Server) prepare(ctx context.Context, lm *loadedModel, body io.Reader) (prepared, error) {
	h := sha256.New()
	m, err := matrix.ReadMatrixMarketLimited(io.TeeReader(body, h), s.readLimits())
	if err == nil {
		_, err = io.Copy(h, body)
	}
	if err != nil {
		return prepared{}, fmt.Errorf("%w: %w", errBadMatrix, err)
	}
	pr := prepared{fp: hex.EncodeToString(h.Sum(nil))}
	build := func(ctx context.Context) (*session.Prepared, error) {
		in := s.inspect(ctx, lm, m)
		pr.reason = in.reason
		pr.local = &session.Prepared{M: m, Feat: in.feat, Sel: in.sel, GenID: lm.genID,
			Format: kernels.Build(m, in.sel.Method, lm.w.Mach.RowBlock)}
		if in.reason != "" {
			return nil, errUncached
		}
		return pr.local, nil
	}
	pr.ent, pr.hit, err = s.sessions.GetOrCreate(ctx, pr.fp, build)
	switch {
	case err == nil:
		return pr, nil
	case errors.Is(err, session.ErrSaturated):
		sessionsDegraded.Inc()
	case !errors.Is(err, errUncached):
		return pr, err
	}
	if pr.local == nil {
		// A singleflight waiter: the leader's build is not ours to reuse.
		if _, err := build(ctx); err != nil && !errors.Is(err, errUncached) {
			return pr, err
		}
	}
	if pr.reason == "" {
		pr.reason = reasonSessionSaturated
	}
	return pr, nil
}

// selection returns the matrix shape and the current selection of a
// prepared request, re-predicting a cached entry after a model-generation
// change.
func (s *Server) selection(pr prepared, lm *loadedModel) (matrix.Shape, core.Selection) {
	if pr.ent == nil {
		return pr.local.M.Shape(), pr.local.Sel
	}
	return pr.ent.Shape(), s.sessions.Refresh(pr.ent, lm.genID, lm.w.SelectFromFeatures)
}

// buildFailed answers a failed session build: 400 for a bad body, 500 for
// an internal failure, and onDeadline when the request deadline is gone.
func buildFailed(ctx context.Context, w http.ResponseWriter, err error, onDeadline func()) {
	switch {
	case errors.Is(err, errBadMatrix):
		rejectBody(w, err)
	case ctx.Err() != nil:
		onDeadline()
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// readBody drains the capped request body of a /spmv call; on failure it
// answers the request and reports false. A body whose Content-Length is
// within the cap is read into a buffer sized for it up front, not grown by
// copying.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		// ReadFrom keeps bytes.MinRead free for each read, the last one,
		// which finds the end of the body, included.
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		rejectBody(w, err)
		return nil, false
	}
	return body.Bytes(), true
}

// handleMatrix ingests a matrix into the session store and always answers
// with the fingerprint; a blown deadline degrades to the fallback.
func (s *Server) handleMatrix(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time) {
	lm := s.models.current()
	pr, err := s.prepare(ctx, lm, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		buildFailed(ctx, w, err, func() {
			writeJSON(w, http.StatusOK, matrixResponse{
				predictResponse: selectionResponse(lm.fallbackSelection(), reasonDeadline, pr.fp, matrix.Shape{}, start)})
		})
		return
	}
	if pr.ent != nil {
		defer s.sessions.Release(pr.ent)
	}
	shape, sel := s.selection(pr, lm)
	resp := matrixResponse{predictResponse: selectionResponse(sel, pr.reason, pr.fp, shape, start), Stored: pr.ent != nil}
	resp.Cached = pr.hit
	writeJSON(w, http.StatusOK, resp)
}

// handleSpMV executes y = A^k x against a prepared session (warm: the
// cached converted artifact, zero preprocessing) or an inline body (cold:
// the full inspector pass, cached for next time). The execution pins the
// session, so eviction cannot free the artifact mid-multiply.
func (s *Server) handleSpMV(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req spmvRequest
	if err := json.Unmarshal(body, &req); err != nil {
		requestsRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("serve: decoding /spmv request: %v", err)})
		return
	}
	if (req.Fingerprint == "") == (req.Matrix == "") {
		requestsRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "serve: /spmv needs exactly one of \"fingerprint\" or \"matrix\""})
		return
	}
	if req.Iterations <= 0 {
		req.Iterations = 1
	}
	if req.Iterations > spmvMaxIterations {
		requestsRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("serve: iterations %d exceeds the %d cap", req.Iterations, spmvMaxIterations)})
		return
	}

	lm := s.models.current()
	pr := prepared{fp: req.Fingerprint, hit: true}
	if pr.fp != "" {
		if pr.ent, ok = s.acquireSession(w, pr.fp); !ok {
			return
		}
	} else {
		var err error
		if pr, err = s.prepare(ctx, lm, strings.NewReader(req.Matrix)); err != nil {
			// The execution itself cannot be faked by a fallback answer.
			buildFailed(ctx, w, err, func() {
				writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			})
			return
		}
	}
	if pr.ent != nil {
		defer s.sessions.Release(pr.ent)
	}
	if pr.hit {
		spmvWarm.Inc()
	} else {
		spmvCold.Inc()
	}
	s.execSpMV(ctx, w, lm, pr, req, start)
}

// execSpMV validates the vector shape and runs the selected kernel: the
// pinned session's cached one, or the request-local build's, which needs no
// pinning or execution serialization. X defaults to all ones, and y is
// echoed only for small results.
func (s *Server) execSpMV(ctx context.Context, w http.ResponseWriter, lm *loadedModel, pr prepared, req spmvRequest, start time.Time) {
	shape, sel := s.selection(pr, lm)
	x, refusal := req.X, ""
	switch {
	case req.Iterations > 1 && shape.Rows != shape.Cols:
		refusal = fmt.Sprintf("serve: iterations > 1 needs a square matrix, got %dx%d", shape.Rows, shape.Cols)
	case x == nil:
		x = matrix.Ones(shape.Cols)
	case len(x) != shape.Cols:
		refusal = fmt.Sprintf("serve: x has %d entries, matrix has %d columns", len(x), shape.Cols)
	}
	if refusal != "" {
		requestsRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: refusal})
		return
	}
	var y []float64
	var err error
	if pr.ent != nil {
		y, err = s.sessions.Exec(ctx, pr.ent, x, req.Iterations, kernels.DefaultWorkers())
	} else {
		y, err = kernels.Iterate(ctx, pr.local.Format, shape.Rows, x, req.Iterations, kernels.DefaultWorkers())
	}
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "serve: spmv: " + err.Error()})
		return
	}
	yNorm := matrix.Norm2(y)
	if math.IsInf(yNorm, 0) || math.IsNaN(yNorm) {
		requestsRejected.Inc()
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: nonFinite(y, yNorm, req.Iterations)})
		return
	}
	if pr.reason != "" {
		requestsDegraded.Inc()
	}
	resp := spmvResponse{
		Fingerprint: pr.fp,
		Method:      sel.Method.String(),
		Warm:        pr.hit,
		Degraded:    pr.reason != "",
		Reason:      pr.reason,
		Rows:        shape.Rows,
		Cols:        shape.Cols,
		NNZ:         shape.NNZ,
		Iterations:  req.Iterations,
		YNorm:       yNorm,
		ElapsedMS:   float64(time.Since(start)) / float64(time.Millisecond),
	}
	if shape.Rows <= spmvInlineRows {
		resp.Y = y
	}
	writeJSON(w, http.StatusOK, resp)
}

// nonFinite is the refusal of a product whose y_norm is not finite, which
// JSON cannot carry: it names the first non-finite entry of y, or, when
// every entry is finite, the norm that overflowed.
func nonFinite(y []float64, yNorm float64, iters int) string {
	for i, v := range y {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Sprintf("serve: spmv result is not finite: y[%d] = %v after %d iteration(s)", i, v, iters)
		}
	}
	return fmt.Sprintf("serve: spmv result is not finite: y_norm = %v after %d iteration(s)", yNorm, iters)
}
