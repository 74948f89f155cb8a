package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/matrix"
	"wise/internal/obs"
	"wise/internal/resilience/faultinject"
	"wise/internal/session"
)

// predictResponse is the JSON body of a /predict answer. Degraded is true
// when the predictor could not run (breaker open, deadline overrun, or
// prediction error) and the server answered with the CSR fallback instead —
// a well-formed request is never turned away empty-handed.
type predictResponse struct {
	Method         string  `json:"method"`
	Index          int     `json:"index"`
	PredictedClass int     `json:"predicted_class"`
	Classes        []int   `json:"classes,omitempty"`
	Degraded       bool    `json:"degraded"`
	Reason         string  `json:"reason,omitempty"`
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	NNZ            int     `json:"nnz"`
	Fingerprint    string  `json:"fingerprint,omitempty"` // session handle (stateful requests)
	Cached         bool    `json:"cached,omitempty"`      // answered from a prepared session
	ElapsedMS      float64 `json:"elapsed_ms"`
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Degradation reasons reported in predictResponse.Reason.
const (
	reasonBreakerOpen  = "breaker-open"
	reasonDeadline     = "deadline"
	reasonPredictError = "predict-error"
)

// endpoint wraps a POST handler in the prelude they all share: counters
// (the per-endpoint one may be nil), the serve.handler.panic site, panic ->
// 500, admission (429 + Retry-After, or 503 when the client gave up while
// queued), the RequestTimeout context handed to h, and request_seconds.
func (s *Server) endpoint(counter *obs.Counter, h func(context.Context, http.ResponseWriter, *http.Request, time.Time)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requestsTotal.Inc()
		if counter != nil {
			counter.Inc()
		}
		defer func() {
			if rec := recover(); rec != nil {
				requestsPanicked.Inc()
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: fmt.Sprintf("serve: internal error: %v", rec)})
			}
			requestSeconds.Observe(time.Since(start).Seconds())
		}()
		if err := faultinject.Hit("serve.handler.panic"); err != nil {
			panic(err)
		}

		if err := s.admit.acquire(r.Context()); err != nil {
			if errors.Is(err, errSaturated) {
				requestsShed.Inc()
				w.Header().Set("Retry-After", fmt.Sprintf("%d", s.admit.retryAfterSeconds()))
				writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
				return
			}
			// Client went away while queued; nobody is reading the response.
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		}
		defer s.admit.release()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(ctx, w, r, start)
	}
}

// handlePredict answers a named fingerprint from its session; any other
// request is one stateless inspection, parsed straight off the capped body
// reader — nothing buffered, inserted or converted. Nothing multiplies with
// the matrix unless the shadow loop samples the request, so every other
// body is read for its sparsity pattern alone (matrix.ReadStructure): the
// values are checked but not kept. The sample is drawn before the read.
func (s *Server) handlePredict(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time) {
	if fp := fingerprintOf(r); fp != "" {
		s.answerPredictSession(w, fp, start)
		return
	}
	lm := s.models.current()
	sampled := s.feedback != nil && s.feedback.sample()
	read := matrix.ReadStructure
	if sampled {
		read = matrix.ReadMatrixMarketLimited
	}
	m, err := read(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), s.readLimits())
	if err != nil {
		rejectBody(w, err)
		return
	}
	in := s.inspect(ctx, lm, m)
	if sampled && in.reason == "" {
		// Off-path shadow measurement of a healthy prediction; never
		// blocks or fails the request.
		s.feedback.offer(in, lm)
	}
	writeJSON(w, http.StatusOK, selectionResponse(in.sel, in.reason, "", in.m.Shape(), start))
}

// fingerprintOf extracts the session handle of a warm request: the fp query
// parameter or the X-Wise-Fingerprint header.
func fingerprintOf(r *http.Request) string {
	if fp := r.URL.Query().Get("fp"); fp != "" {
		return fp
	}
	return r.Header.Get("X-Wise-Fingerprint")
}

// answerPredictSession serves /predict from a prepared session: no parse, no
// extraction, re-predicted only on a model-generation change.
func (s *Server) answerPredictSession(w http.ResponseWriter, fp string, start time.Time) {
	ent, ok := s.acquireSession(w, fp)
	if !ok {
		return
	}
	defer s.sessions.Release(ent)
	lm := s.models.current()
	resp := selectionResponse(s.sessions.Refresh(ent, lm.genID, lm.w.SelectFromFeatures), "", fp, ent.Shape(), start)
	resp.Cached = true
	writeJSON(w, http.StatusOK, resp)
}

// acquireSession pins the session for fp. An unknown fingerprint is
// answered 404 — the client uploads via /matrix first.
func (s *Server) acquireSession(w http.ResponseWriter, fp string) (*session.Entry, bool) {
	ent, ok := s.sessions.Acquire(fp)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("serve: unknown fingerprint %s; upload via POST /matrix first", fp)})
	}
	return ent, ok
}

// inspection is one predictor pass over a parsed request matrix. reason is
// empty when the predictor ran; otherwise sel is the serving generation's
// fallback and reason says why.
type inspection struct {
	m      *matrix.CSR
	feat   features.Features
	sel    core.Selection
	reason string
}

// readLimits bounds the sizes a request body may declare: at most one row
// and one column per byte of the largest body the server accepts, so no
// header makes the server allocate more than a fixed multiple of that body.
// A body past them is answered 400.
func (s *Server) readLimits() matrix.ReadLimits {
	lim := matrix.DefaultReadLimits()
	lim.MaxRows = int(min(s.cfg.MaxBodyBytes, int64(lim.MaxRows)))
	lim.MaxCols = lim.MaxRows
	return lim
}

// inspect is the predictor step of every endpoint, run on a parsed body:
// the breaker-guarded extract + infer. A predictor the breaker keeps out,
// that fails, or that overruns ctx degrades the selection to the fallback;
// the outcome feeds the breaker.
func (s *Server) inspect(ctx context.Context, lm *loadedModel, m *matrix.CSR) inspection {
	in := inspection{m: m}
	usePredictor, probe := s.breaker.allow()
	if !usePredictor {
		in.sel, in.reason = lm.fallbackSelection(), reasonBreakerOpen
		return in
	}
	feat, err := extract(ctx, lm, m)
	s.breaker.report(err == nil, probe)
	if err == nil {
		in.feat, in.sel = feat, lm.w.SelectFromFeatures(feat)
		return in
	}
	in.sel, in.reason = lm.fallbackSelection(), reasonPredictError
	if ctx.Err() != nil {
		in.reason = reasonDeadline
	}
	return in
}

// extract runs the ctx-aware feature extraction with the two predictor
// fault sites in front: serve.predict.delay (armed with d=... to simulate a
// slow predictor overrunning the deadline) and serve.predict.error (a
// failing predictor, the breaker-trip trigger).
func extract(ctx context.Context, lm *loadedModel, m *matrix.CSR) (features.Features, error) {
	if err := faultinject.Hit("serve.predict.delay"); err != nil {
		return features.Features{}, err
	}
	if err := faultinject.Hit("serve.predict.error"); err != nil {
		return features.Features{}, err
	}
	feat, err := features.ExtractCtx(ctx, m, lm.w.FeatureCfg)
	if err == nil {
		err = ctx.Err()
	}
	return feat, err
}

// selectionResponse assembles a /predict or /matrix answer; a non-empty
// reason marks it degraded. shape is zero when no matrix was parsed.
func selectionResponse(sel core.Selection, reason, fp string, shape matrix.Shape, start time.Time) predictResponse {
	resp := predictResponse{
		Method:         sel.Method.String(),
		Index:          sel.Index,
		PredictedClass: sel.PredictedClass,
		Classes:        sel.Classes,
		Degraded:       reason != "",
		Reason:         reason,
		Fingerprint:    fp,
		Rows:           shape.Rows,
		Cols:           shape.Cols,
		NNZ:            shape.NNZ,
	}
	if resp.Degraded {
		requestsDegraded.Inc()
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp
}

// rejectBody answers a body that could not be read or parsed: 413 when it
// ran past MaxBodyBytes, 400 otherwise.
func rejectBody(w http.ResponseWriter, err error) {
	requestsRejected.Inc()
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
