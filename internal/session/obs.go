package session

import "wise/internal/obs"

// Observability instruments of the session store (OBSERVABILITY.md). These
// are process-wide (the /metricz view); per-store exact numbers live in
// Stats, which tests use for delta assertions.
var (
	sessionHits             = obs.NewCounter("session.hits")
	sessionMisses           = obs.NewCounter("session.misses")
	sessionBuilds           = obs.NewCounter("session.builds")
	sessionConverts         = obs.NewCounter("session.converts")
	sessionEvictions        = obs.NewCounter("session.evictions")
	sessionEvictionsRefused = obs.NewCounter("session.evictions_refused")
	sessionSaturations      = obs.NewCounter("session.saturations")
	sessionExecs            = obs.NewCounter("session.execs")
	sessionSpills           = obs.NewCounter("session.spills")
	sessionSpillFailures    = obs.NewCounter("session.spill_failures")
	sessionRecoveries       = obs.NewCounter("session.recoveries")
	sessionQuarantined      = obs.NewCounter("session.spill_quarantined")

	singleflightWaits       = obs.NewCounter("session.singleflight_waits")
	singleflightLeaderFails = obs.NewCounter("session.singleflight_leader_failures")

	sessionEntries  = obs.NewGauge("session.entries")
	sessionBytes    = obs.NewGauge("session.bytes")
	sessionResident = obs.NewGauge("session.resident_bytes")
	sessionPinned   = obs.NewGauge("session.pinned")
)

// obsVerbosef narrates non-fatal store events (spill cleanup failures,
// quarantines) through the shared verbose log.
func obsVerbosef(format string, args ...any) { obs.Verbosef(format, args...) }
