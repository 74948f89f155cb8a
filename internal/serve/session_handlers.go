package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"wise/internal/features"
	"wise/internal/kernels"
	"wise/internal/matrix"
	"wise/internal/session"
)

// The stateful endpoints (RESILIENCE.md "Stateful serving"): POST /matrix
// prepares a session — parse, feature extraction, prediction, format
// conversion — exactly once per distinct body and returns its sha256
// fingerprint; POST /spmv executes the selected kernel against the cached
// converted artifact, warm when addressed by fingerprint. Saturation of the
// session store degrades both to the stateless path, marked
// "degraded": true — never a refusal.

// errBadMatrix classifies a session build failure as the client's fault
// (unparseable or over-limit matrix), mapping to 400 instead of 500.
var errBadMatrix = errors.New("serve: bad matrix body")

// reasonSessionSaturated marks answers produced by the stateless path
// because the session store could not admit the entry.
const reasonSessionSaturated = "session-saturated"

// matrixResponse is the JSON body of a /matrix answer: the prediction plus
// the session handle. Stored is false on the degraded stateless path (the
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

// prepare is the session BuildFunc: one full inspector pass over an
// uploaded body under the request's deadline. Parse failures are wrapped in
// errBadMatrix so the handler answers 400, not 500.
func (s *Server) prepare(ctx context.Context, lm *loadedModel, body []byte) (*session.Prepared, error) {
	m, err := matrix.ReadMatrixMarketLimited(bytes.NewReader(body), s.cfg.Limits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadMatrix, err)
	}
	feat, err := features.ExtractCtx(ctx, m, lm.w.FeatureCfg)
	if err != nil {
		return nil, err
	}
	sel := lm.w.SelectFromFeatures(feat)
	return &session.Prepared{
		M:      m,
		Feat:   feat,
		Sel:    sel,
		GenID:  lm.genID,
		Format: kernels.Build(m, sel.Method, lm.w.Mach.RowBlock),
	}, nil
}

// readBody drains the capped request body. On failure it writes the error
// response (413 for an over-cap body, 400 otherwise) and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		requestsRejected.Inc()
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return nil, false
	}
	return body, true
}

// handleMatrix ingests a matrix into the session store: admission, deadline,
// bounded read, then a singleflight-deduplicated inspector pass. The
// response always carries the fingerprint; when the store is saturated the
// answer comes from the stateless path with "degraded": true.
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	requestsTotal.Inc()
	requestsMatrix.Inc()
	defer func() {
		if rec := recover(); rec != nil {
			requestsPanicked.Inc()
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: fmt.Sprintf("serve: internal error: %v", rec)})
		}
		requestSeconds.Observe(time.Since(start).Seconds())
	}()

	if err := s.admit.acquire(r.Context()); err != nil {
		if errors.Is(err, errSaturated) {
			requestsShed.Inc()
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.admit.retryAfterSeconds()))
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	defer s.admit.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	fp := session.Fingerprint(body)
	lm := s.models.current()
	ent, hit, err := s.sessions.GetOrCreate(ctx, fp, func(ctx context.Context) (*session.Prepared, error) {
		return s.prepare(ctx, lm, body)
	})
	if err != nil {
		s.answerMatrixFallback(ctx, w, lm, fp, body, err, start)
		return
	}
	defer s.sessions.Release(ent)

	sel := s.sessions.Refresh(ent, lm.genID, lm.w.SelectFromFeatures)
	m := ent.Matrix()
	resp := matrixResponse{Stored: true}
	resp.Method = sel.Method.String()
	resp.Index = sel.Index
	resp.PredictedClass = sel.PredictedClass
	resp.Classes = sel.Classes
	resp.Fingerprint, resp.Cached = fp, hit
	resp.Rows, resp.Cols, resp.NNZ = m.Rows, m.Cols, m.NNZ()
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// answerMatrixFallback classifies a failed session build. Client mistakes
// are 4xx; a saturated store degrades to the stateless predict path (the
// fingerprint still reported, Stored false) so the upload is answered, not
// refused; a blown deadline degrades to the CSR fallback like /predict.
func (s *Server) answerMatrixFallback(ctx context.Context, w http.ResponseWriter, lm *loadedModel, fp string, body []byte, err error, start time.Time) {
	switch {
	case errors.Is(err, errBadMatrix):
		requestsRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, session.ErrSaturated):
		sessionsDegraded.Inc()
		m, parseErr := matrix.ReadMatrixMarketLimited(bytes.NewReader(body), s.cfg.Limits)
		if parseErr != nil {
			requestsRejected.Inc()
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: parseErr.Error()})
			return
		}
		pr, _, _ := s.selectMethod(ctx, lm, m)
		if !pr.Degraded {
			pr.Degraded, pr.Reason = true, reasonSessionSaturated
		}
		requestsDegraded.Inc()
		resp := matrixResponse{predictResponse: pr}
		resp.Fingerprint = fp
		resp.Rows, resp.Cols, resp.NNZ = m.Rows, m.Cols, m.NNZ()
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		writeJSON(w, http.StatusOK, resp)
		return
	case ctx.Err() != nil:
		requestsDegraded.Inc()
		resp := matrixResponse{predictResponse: fallbackResponse(lm, reasonDeadline)}
		resp.Fingerprint = fp
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		writeJSON(w, http.StatusOK, resp)
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// handleSpMV executes y = A^k x against a prepared session (warm: the
// cached converted artifact, zero preprocessing) or an inline body (cold:
// the full inspector pass, cached for next time). The execution pins the
// session, so eviction cannot free the artifact mid-multiply.
func (s *Server) handleSpMV(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	requestsTotal.Inc()
	requestsSpMV.Inc()
	defer func() {
		if rec := recover(); rec != nil {
			requestsPanicked.Inc()
			writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: fmt.Sprintf("serve: internal error: %v", rec)})
		}
		requestSeconds.Observe(time.Since(start).Seconds())
	}()

	if err := s.admit.acquire(r.Context()); err != nil {
		if errors.Is(err, errSaturated) {
			requestsShed.Inc()
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.admit.retryAfterSeconds()))
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	defer s.admit.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

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
	if req.Fingerprint != "" {
		ent, ok := s.sessions.Acquire(req.Fingerprint)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("serve: unknown fingerprint %s; upload via POST /matrix first", req.Fingerprint)})
			return
		}
		defer s.sessions.Release(ent)
		spmvWarm.Inc()
		sel := s.sessions.Refresh(ent, lm.genID, lm.w.SelectFromFeatures)
		s.answerSpMVSession(ctx, w, ent, sel.Method.String(), req, true, start)
		return
	}

	// Inline body: content-address it and prepare (or reuse) the session.
	inline := []byte(req.Matrix)
	fp := session.Fingerprint(inline)
	ent, hit, err := s.sessions.GetOrCreate(ctx, fp, func(ctx context.Context) (*session.Prepared, error) {
		return s.prepare(ctx, lm, inline)
	})
	if err != nil {
		s.answerSpMVFallback(ctx, w, lm, fp, inline, req, err, start)
		return
	}
	defer s.sessions.Release(ent)
	if hit {
		spmvWarm.Inc()
	} else {
		spmvCold.Inc()
	}
	req.Fingerprint = fp
	sel := s.sessions.Refresh(ent, lm.genID, lm.w.SelectFromFeatures)
	s.answerSpMVSession(ctx, w, ent, sel.Method.String(), req, hit, start)
}

// answerSpMVSession validates the vector shape and runs the pinned
// session's cached kernel.
func (s *Server) answerSpMVSession(ctx context.Context, w http.ResponseWriter, ent *session.Entry, method string, req spmvRequest, warm bool, start time.Time) {
	m := ent.Matrix()
	x, errResp := spmvVector(m, req)
	if errResp != "" {
		requestsRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: errResp})
		return
	}
	y, err := s.sessions.Exec(ctx, ent, x, req.Iterations, kernels.DefaultWorkers())
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, spmvResult(req.Fingerprint, method, warm, false, "", m, req.Iterations, y, start))
}

// answerSpMVFallback handles a failed session build for an inline /spmv:
// 4xx for client mistakes, a stateless one-shot execution marked degraded
// when the store is saturated, 503 when the deadline is already gone (the
// execution itself cannot be faked by a fallback answer).
func (s *Server) answerSpMVFallback(ctx context.Context, w http.ResponseWriter, lm *loadedModel, fp string, inline []byte, req spmvRequest, err error, start time.Time) {
	switch {
	case errors.Is(err, errBadMatrix):
		requestsRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, session.ErrSaturated):
		sessionsDegraded.Inc()
		spmvCold.Inc()
		m, parseErr := matrix.ReadMatrixMarketLimited(bytes.NewReader(inline), s.cfg.Limits)
		if parseErr != nil {
			requestsRejected.Inc()
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: parseErr.Error()})
			return
		}
		x, errResp := spmvVector(m, req)
		if errResp != "" {
			requestsRejected.Inc()
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: errResp})
			return
		}
		// Stateless: select (with the usual degradation ladder), convert,
		// execute, discard. The format is request-local, so no pinning or
		// execution serialization is needed.
		pr, sel, predicted := s.selectMethod(ctx, lm, m)
		method := sel.Method
		if !predicted {
			method = lm.w.Models[lm.fallback].Method
		}
		f := kernels.Build(m, method, lm.w.Mach.RowBlock)
		y, execErr := kernels.Iterate(ctx, f, m.Rows, x, req.Iterations, kernels.DefaultWorkers())
		if execErr != nil {
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "serve: spmv: " + execErr.Error()})
			return
		}
		requestsDegraded.Inc()
		reason := pr.Reason
		if reason == "" {
			reason = reasonSessionSaturated
		}
		writeJSON(w, http.StatusOK, spmvResult(fp, method.String(), false, true, reason, m, req.Iterations, y, start))
		return
	case ctx.Err() != nil:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// spmvVector resolves the input vector for a request: the client's x
// (length-checked) or the all-ones default. Multi-iteration runs need a
// square matrix; the error string is empty on success.
func spmvVector(m *matrix.CSR, req spmvRequest) ([]float64, string) {
	if req.Iterations > 1 && m.Rows != m.Cols {
		return nil, fmt.Sprintf("serve: iterations > 1 needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	if req.X == nil {
		return matrix.Ones(m.Cols), ""
	}
	if len(req.X) != m.Cols {
		return nil, fmt.Sprintf("serve: x has %d entries, matrix has %d columns", len(req.X), m.Cols)
	}
	return req.X, ""
}

// spmvResult assembles the response, echoing y only for small results.
func spmvResult(fp, method string, warm, degraded bool, reason string, m *matrix.CSR, iters int, y []float64, start time.Time) spmvResponse {
	resp := spmvResponse{
		Fingerprint: fp,
		Method:      method,
		Warm:        warm,
		Degraded:    degraded,
		Reason:      reason,
		Rows:        m.Rows,
		Cols:        m.Cols,
		NNZ:         m.NNZ(),
		Iterations:  iters,
		YNorm:       matrix.Norm2(y),
		ElapsedMS:   float64(time.Since(start)) / float64(time.Millisecond),
	}
	if m.Rows <= spmvInlineRows {
		resp.Y = y
	}
	return resp
}
