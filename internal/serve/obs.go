package serve

import "wise/internal/obs"

// Observability instruments of the serving path (OBSERVABILITY.md). All are
// in the default registry, so -metrics snapshots and the /metricz endpoint
// expose them without extra wiring.
var (
	requestsTotal    = obs.NewCounter("serve.requests_total")
	requestsShed     = obs.NewCounter("serve.requests_shed")
	requestsDegraded = obs.NewCounter("serve.requests_degraded")
	requestsPanicked = obs.NewCounter("serve.requests_panicked")
	requestsRejected = obs.NewCounter("serve.requests_rejected")
	// Answers whose body JSON could not encode (a non-finite float), sent
	// as 500 with an error body instead.
	responsesUnencodable = obs.NewCounter("serve.responses_unencodable")

	// Stateful serving (internal/session, RESILIENCE.md "Stateful serving").
	requestsMatrix   = obs.NewCounter("serve.requests_matrix")
	requestsSpMV     = obs.NewCounter("serve.requests_spmv")
	spmvWarm         = obs.NewCounter("serve.spmv_warm")
	spmvCold         = obs.NewCounter("serve.spmv_cold")
	sessionsDegraded = obs.NewCounter("serve.sessions_degraded")

	// Sessions still pinned by in-flight executions at the SIGTERM instant,
	// recorded by the drain path for the final metrics snapshot.
	drainPinnedSessions = obs.NewGauge("serve.drain_pinned_sessions")

	breakerTrips = obs.NewCounter("serve.breaker_trips")
	breakerGauge = obs.NewGauge("serve.breaker_state")

	modelReloads         = obs.NewCounter("serve.model_reloads")
	modelReloadsRejected = obs.NewCounter("serve.model_reloads_rejected")

	inFlight = obs.NewGauge("serve.in_flight")

	requestSeconds = obs.NewHistogram("serve.request_seconds", nil)

	// Feedback loop: shadow measurement, drift detection, retrain (see
	// RESILIENCE.md "Self-healing serving").
	shadowSampled  = obs.NewCounter("serve.shadow_sampled")
	shadowDropped  = obs.NewCounter("serve.shadow_dropped")
	shadowSkipped  = obs.NewCounter("serve.shadow_skipped")
	shadowMeasured = obs.NewCounter("serve.shadow_measured")
	shadowMismatch = obs.NewCounter("serve.shadow_mismatches")
	shadowPanics   = obs.NewCounter("serve.shadow_panics")
	shadowDeadline = obs.NewCounter("serve.shadow_deadline")
	shadowSeconds  = obs.NewHistogram("serve.shadow_seconds", nil)

	driftRate      = obs.NewGauge("serve.drift_rate")
	driftTrippedG  = obs.NewGauge("serve.drift_tripped")
	driftTrips     = obs.NewCounter("serve.drift_trips")
	driftRollbacks = obs.NewCounter("serve.drift_rollbacks")

	retrains       = obs.NewCounter("serve.retrains")
	retrainsFailed = obs.NewCounter("serve.retrains_failed")
)
