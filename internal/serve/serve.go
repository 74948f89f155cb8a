// Package serve is the long-running inference surface of the WISE
// reproduction: an HTTP/JSON server that wraps the features -> core.WISE ->
// SelectFromClasses path in production robustness machinery. Every layer of
// the request path is failure-isolated (RESILIENCE.md "Serving"):
//
//   - admission control bounds in-flight requests and sheds overload with
//     429 + Retry-After instead of queueing without bound;
//   - per-request deadlines are threaded as context.Context through feature
//     extraction and prediction;
//   - a panic in one request becomes a 500 plus a counter, never a dead
//     process;
//   - ingest is hardened with a request-body cap and matrix.ReadLimits so a
//     pathological upload cannot OOM the server;
//   - prediction failures and deadline overruns degrade to the CSR fallback
//     selection (marked "degraded": true) — a well-formed request always
//     gets a usable answer;
//   - a circuit breaker trips to fallback-only mode after consecutive
//     predictor failures and half-opens on probe requests;
//   - the model hot-reloads on SIGHUP or mtime change with validation and
//     rollback (reload.go);
//   - shutdown drains: stop accepting, finish in-flight within the drain
//     budget, then exit (the CLI maps this to status 130), recording how
//     many sessions were still pinned at the signal.
//
// On top of the stateless path sits the stateful session layer
// (internal/session, RESILIENCE.md "Stateful serving"): POST /matrix
// ingests a MatrixMarket body once and returns its sha256 fingerprint;
// POST /predict and POST /spmv then accept either an inline body or a
// fingerprint, reusing the cached parse + features + prediction +
// converted kernel. A saturated session store degrades those requests to
// the stateless path ("degraded": true) rather than refusing them.
//
// /healthz, /readyz, and /metricz expose liveness, readiness, and an obs
// snapshot to orchestration.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/obs"
	"wise/internal/registry"
	"wise/internal/session"
)

// Config tunes the server. The zero value of any field falls back to the
// listed default, so callers set only what they need.
type Config struct {
	ModelPath string          // trained model file from wise-train (required)
	Mach      machine.Machine // cache geometry for loaded models

	MaxInFlight int           // concurrent predictions; default 2*GOMAXPROCS
	MaxQueue    int           // waiting requests beyond MaxInFlight; default == MaxInFlight
	QueueWait   time.Duration // max time in the wait queue; default 100ms

	RequestTimeout time.Duration // per-request prediction deadline; default 2s
	MaxBodyBytes   int64         // request-body cap; default 64 MiB
	Limits         matrix.ReadLimits

	BreakerThreshold int           // consecutive failures that trip the breaker; default 5
	BreakerCooldown  time.Duration // open -> half-open delay; default 5s

	ReloadPoll   time.Duration // model-file mtime poll; default 2s; < 0 disables polling
	DrainTimeout time.Duration // shutdown budget for in-flight requests; default 5s

	// Stateful serving (RESILIENCE.md "Stateful serving"): POST /matrix
	// prepares a session once, POST /predict and POST /spmv reuse it by
	// fingerprint. SessionBytes is the byte budget of the prepared-matrix
	// LRU (default 256 MiB); SessionSpillDir, when set, spills prepared
	// sessions to disk in checksummed envelopes so a restart rehydrates them.
	SessionBytes    int64
	SessionSpillDir string

	// Self-healing loop (RESILIENCE.md "Self-healing serving"). RegistryDir
	// switches the model source from the single -models file to a crash-safe
	// generation registry (internal/registry); an empty registry is seeded
	// from ModelPath. ShadowRate > 0 enables shadow measurement of sampled
	// requests; with a registry it closes the full loop — drift detection,
	// retrain, canary-gated promotion, probation rollback.
	RegistryDir string

	ShadowRate       float64       // fraction of requests shadow-measured; 0 disables
	ShadowWorkers    int           // measurement workers; default 1
	ShadowQueue      int           // pending measurement bound; default 16
	ShadowDeadline   time.Duration // per-measurement budget; default 2s
	ShadowMaxNNZ     int           // skip matrices larger than this; default 2M
	ShadowMaxSamples int           // shadow-label store bound; default 512

	DriftWindow     int     // mismatch-rate window; default 64
	DriftMinSamples int     // samples before the detector may trip; default 16
	DriftTrip       float64 // mismatch rate that trips; default 0.5
	DriftClear      float64 // rate that releases the trip; default DriftTrip/2
	DriftProbation  int     // post-promotion probation samples; default 2*DriftMinSamples

	RetrainMinSamples int           // labels required to retrain; default 8
	RetrainDeadline   time.Duration // quarantined training budget; default 30s
	CanaryHoldout     float64       // held-out validation fraction; default 0.25
	CanarySeed        int64         // holdout-split seed; default 1

	ShadowMeasure measureFunc // test hook; nil runs the real kernels
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Limits == (matrix.ReadLimits{}) {
		c.Limits = matrix.DefaultReadLimits()
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ReloadPoll == 0 {
		c.ReloadPoll = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.SessionBytes <= 0 {
		c.SessionBytes = 256 << 20
	}
	if c.ShadowRate > 1 {
		c.ShadowRate = 1
	}
	if c.ShadowWorkers <= 0 {
		c.ShadowWorkers = 1
	}
	if c.ShadowQueue <= 0 {
		c.ShadowQueue = 16
	}
	if c.ShadowDeadline <= 0 {
		c.ShadowDeadline = 2 * time.Second
	}
	if c.ShadowMaxNNZ <= 0 {
		c.ShadowMaxNNZ = 2_000_000
	}
	if c.ShadowMaxSamples <= 0 {
		c.ShadowMaxSamples = 512
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 64
	}
	if c.DriftMinSamples <= 0 {
		c.DriftMinSamples = 16
	}
	if c.DriftTrip <= 0 || c.DriftTrip > 1 {
		c.DriftTrip = 0.5
	}
	if c.DriftClear <= 0 || c.DriftClear >= c.DriftTrip {
		c.DriftClear = c.DriftTrip / 2
	}
	if c.DriftProbation <= 0 {
		c.DriftProbation = 2 * c.DriftMinSamples
	}
	if c.RetrainMinSamples <= 0 {
		c.RetrainMinSamples = 8
	}
	if c.RetrainDeadline <= 0 {
		c.RetrainDeadline = 30 * time.Second
	}
	if c.CanaryHoldout <= 0 || c.CanaryHoldout >= 1 {
		c.CanaryHoldout = 0.25
	}
	if c.CanarySeed == 0 {
		c.CanarySeed = 1
	}
	return c
}

// Server is one serving instance. Create with New, expose with Handler (for
// tests and embedding) or run with Serve (listener + drain lifecycle).
type Server struct {
	cfg      Config
	models   *modelHolder
	admit    *admission
	breaker  *breaker
	reg      *registry.Registry // nil when serving a plain model file
	feedback *feedback          // nil when ShadowRate is 0
	sessions *session.Store
	ready    atomic.Bool
	mux      *http.ServeMux
}

// New loads and validates the model source and assembles the server. A bad
// model path or registry fails here — startup, not first request — so the
// CLI can exit 1 naming the flag. With RegistryDir set, an empty registry
// is seeded from ModelPath with an ungated initial promotion (there is no
// serving generation to gate against yet).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var src modelSource
	var reg *registry.Registry
	if cfg.RegistryDir != "" {
		var err error
		reg, err = registry.Open(cfg.RegistryDir, cfg.Mach)
		if err != nil {
			return nil, err
		}
		if reg.Current() == nil {
			if cfg.ModelPath == "" {
				return nil, fmt.Errorf("serve: registry %s is empty and no model file given to seed it", cfg.RegistryDir)
			}
			gen, err := reg.ImportFile(cfg.ModelPath)
			if err != nil {
				return nil, err
			}
			if err := reg.Promote(gen.ID); err != nil {
				return nil, err
			}
		}
		src = &registrySource{reg: reg}
	} else {
		src = &fileSource{path: cfg.ModelPath, mach: cfg.Mach}
	}
	models, err := newModelHolder(src)
	if err != nil {
		return nil, err
	}
	sessions, err := session.Open(session.Config{
		MaxBytes: cfg.SessionBytes,
		SpillDir: cfg.SessionSpillDir,
		RowBlock: models.current().w.Mach.RowBlock,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: opening session store: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		models:   models,
		admit:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		breaker:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		reg:      reg,
		sessions: sessions,
	}
	if cfg.ShadowRate > 0 {
		s.feedback = newFeedback(cfg, reg, models)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /predict", s.handlePredict)
	s.mux.HandleFunc("POST /matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /spmv", s.handleSpMV)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	return s, nil
}

// Handler returns the server's HTTP handler (all routes).
func (s *Server) Handler() http.Handler { return s.mux }

// ModelCount reports the number of models in the serving generation.
func (s *Server) ModelCount() int { return len(s.models.current().w.Models) }

// GenerationID reports the registry generation currently serving, or "" for
// a file-backed server.
func (s *Server) GenerationID() string { return s.models.current().genID }

// Registry returns the backing model registry, or nil for a file-backed
// server.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Sessions returns the prepared-matrix session store.
func (s *Server) Sessions() *session.Store { return s.sessions }

// RunFeedback runs the self-healing loop (shadow workers + drift/retrain
// controller) until ctx cancels, joining all goroutines before returning.
// Serve calls it automatically; embedders and tests using Handler directly
// run it themselves when they want shadow measurement active. A no-op that
// still blocks on ctx when the loop is disabled, so callers need not branch.
func (s *Server) RunFeedback(ctx context.Context) {
	if s.feedback == nil {
		<-ctx.Done()
		return
	}
	s.feedback.run(ctx)
}

// Reload forces a model reload (the SIGHUP path, callable directly by
// tests and embedders). See modelHolder.Reload for the rollback contract.
func (s *Server) Reload() error { return s.models.Reload() }

// SetReady toggles the /readyz gate; Serve manages it automatically.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Serve accepts connections on ln until ctx is cancelled, then drains:
// readiness flips off, the listener closes, in-flight requests get
// DrainTimeout to finish, and whatever remains is cancelled. It returns
// ctx.Err() after a clean drain (the CLI maps context.Canceled to exit
// 130), or the listener/serve error if the server fails first. The model
// watcher (SIGHUP + mtime poll) runs for the lifetime of the call; all
// goroutines are joined before returning.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	watchCtx, cancelWatch := context.WithCancel(ctx)
	defer cancelWatch()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.models.watch(watchCtx, s.cfg.ReloadPoll)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.RunFeedback(watchCtx)
	}()
	serveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr <- srv.Serve(ln)
	}()
	s.ready.Store(true)
	defer s.ready.Store(false)

	var err error
	select {
	case e := <-serveErr:
		err = fmt.Errorf("serve: listener failed: %w", e)
	case <-ctx.Done():
		s.ready.Store(false)
		// Record how many sessions in-flight executions still pin at the
		// SIGTERM instant, so the final metrics snapshot covers stateful
		// work alongside the in-flight request drain.
		pinned := s.sessions.PinnedCount()
		drainPinnedSessions.Set(float64(pinned))
		if pinned > 0 {
			obs.Verbosef("serve: draining with %d pinned sessions", pinned)
		}
		// The drain deadline must outlive the cancelled serve ctx, but keep
		// its values (WithoutCancel) so the lint contract sees the chain.
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.DrainTimeout)
		if shutdownErr := srv.Shutdown(drainCtx); shutdownErr != nil {
			// Drain budget exhausted: cancel the stragglers.
			_ = srv.Close()
		}
		cancel()
		<-serveErr // always http.ErrServerClosed once Shutdown/Close ran
		err = ctx.Err()
	}
	cancelWatch()
	wg.Wait()
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = fmt.Fprintln(w, "draining")
		return
	}
	_, _ = fmt.Fprintf(w, "ready: %d models, breaker %s\n", s.ModelCount(), s.breaker.currentState())
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	data, err := obs.TakeSnapshot().MarshalIndent()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(data, '\n')); err != nil {
		obs.Verbosef("serve: writing /metricz response: %v", err)
	}
}

// writeJSON writes one JSON response. The body is encoded before the
// status goes out, so a value JSON cannot carry (a non-finite float) turns
// into a 500 with an error body instead of a status with an empty body.
// Write failures are connection-level (client gone); they are narrated,
// not returned.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		responsesUnencodable.Inc()
		obs.Verbosef("serve: encoding %d response: %v", status, err)
		status = http.StatusInternalServerError
		data, err = json.Marshal(errorResponse{Error: fmt.Sprintf("serve: response not encodable: %v", err)})
		if err != nil {
			panic(err) // an errorResponse holds one string; it always encodes
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(data, '\n')); err != nil {
		obs.Verbosef("serve: writing response: %v", err)
	}
}
