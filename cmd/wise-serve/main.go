// wise-serve runs the fault-tolerant inference server (internal/serve):
// POST a MatrixMarket matrix to /predict and get the selected SpMV method
// as JSON. All three POST endpoints (/predict, /matrix, /spmv) share one
// request pipeline: the server bounds concurrent work (429 + Retry-After
// when saturated), degrades to the CSR fallback instead of failing when the
// predictor errors or overruns the request deadline, trips a circuit
// breaker under repeated predictor failures, and hot-reloads the model
// file on SIGHUP or change (mtime, size, or envelope checksum) with
// rollback on a corrupt file. Every flag maps to one serve.Config field;
// the loop's other tuning (shadow queue and budget, retrain floor, canary
// split) is fixed in internal/serve.
//
//	wise-serve -models models.json -addr 127.0.0.1:8080
//	curl -sS --data-binary @matrix.mtx http://127.0.0.1:8080/predict
//
// Stateful serving (RESILIENCE.md "Stateful serving"): POST the matrix once
// to /matrix and reuse its content fingerprint — warm requests skip parse,
// feature extraction, and format conversion entirely. /spmv executes the
// product with the predicted kernel, by fingerprint or with an inline body:
//
//	fp=$(curl -sS --data-binary @matrix.mtx http://127.0.0.1:8080/matrix | jq -r .fingerprint)
//	curl -sS "http://127.0.0.1:8080/predict?fp=$fp"
//	curl -sS -d "{\"fingerprint\":\"$fp\",\"iterations\":8}" http://127.0.0.1:8080/spmv
//
// Prepared sessions live in a byte-budgeted LRU (-session-bytes); with
// -session-spill they are persisted as checksummed envelopes and rehydrated
// after a restart (corrupt files are quarantined, never served). When the
// budget is saturated, or the predictor degraded, the server answers from
// an uncached build, marked degraded — never a refusal.
//
// With -registry the model lives in a crash-safe generation registry
// (internal/registry), and -shadow-rate enables the self-healing loop
// (RESILIENCE.md "Self-healing serving"): sampled requests are re-executed
// off the request path against the CSR baseline, a drift detector watches
// the prediction-mismatch rate (-drift-window, -drift-min, -drift-trip),
// and a drift trip retrains over the accumulated shadow labels, promotes
// the candidate through a canary gate, and auto-rolls-back a promoted
// generation that regresses during probation:
//
//	wise-serve -models models.json -registry /var/lib/wise -shadow-rate 0.1
//
// /healthz, /readyz, and /metricz expose liveness, readiness, and the obs
// metric snapshot. The shared observability flags (-v, -metrics,
// -cpuprofile, -memprofile) are documented in OBSERVABILITY.md.
//
// The server's mutex-guarded state (the circuit breaker's automaton) is
// annotated `// guarded by mu`; the race-detector gates in scripts/check.sh
// enforce it.
//
// Exit codes (RESILIENCE.md): 0 never in normal operation (the server runs
// until signalled), 1 startup or listener failure naming the offending
// flag, 2 usage error, 130 after SIGINT/SIGTERM once in-flight requests
// have drained.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"wise/internal/obs"
	"wise/internal/resilience"
	"wise/internal/resilience/faultinject"
	"wise/internal/serve"
)

// Exit codes, shared by the wise CLIs and documented in RESILIENCE.md.
const (
	exitOK          = 0
	exitIO          = 1
	exitUsage       = 2
	exitInterrupted = 130 // SIGINT/SIGTERM after drain (128+SIGINT)
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		models      = flag.String("models", "models.json", "trained model file from wise-train; reloaded on SIGHUP or mtime change")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-request prediction deadline before degrading to the CSR fallback")
		maxInflight = flag.Int("max-inflight", 0, "max concurrent predictions (0 = 2x GOMAXPROCS)")
		maxQueue    = flag.Int("queue", 0, "max requests waiting for a slot (0 = same as -max-inflight)")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "max time a request waits in the queue before shedding with 429")
		maxBody     = flag.Int64("max-body", 64<<20, "request body cap in bytes")
		drain       = flag.Duration("drain", 5*time.Second, "shutdown budget for in-flight requests after SIGINT/SIGTERM")
		reloadPoll  = flag.Duration("reload-poll", 2*time.Second, "model-file change poll interval (negative disables polling)")
		brkThresh   = flag.Int("breaker-threshold", 5, "consecutive predictor failures that trip the circuit breaker")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "how long the tripped breaker stays open before probing")

		sessionBytes = flag.Int64("session-bytes", 256<<20, "prepared-session cache budget in bytes; least-recently-used sessions are evicted past it")
		sessionSpill = flag.String("session-spill", "", "session spill directory; prepared sessions survive restarts via checksummed envelopes (empty = in-memory only)")

		registryDir = flag.String("registry", "", "model registry directory; enables crash-safe generations with canary-gated promotion (empty = serve -models directly)")
		shadowRate  = flag.Float64("shadow-rate", 0, "fraction of requests shadow-measured against the CSR baseline, 0..1 (0 disables the self-healing loop)")
		shadowWork  = flag.Int("shadow-workers", 1, "shadow measurement worker goroutines")
		driftWindow = flag.Int("drift-window", 64, "shadow samples in the drift-detection window")
		driftMin    = flag.Int("drift-min", 16, "minimum shadow samples before drift may trip")
		driftTrip   = flag.Float64("drift-trip", 0.5, "prediction-mismatch rate that trips drift and triggers retrain, (0,1]")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "wise-serve: usage: wise-serve [-addr host:port] [-models file] (no positional arguments)")
		return exitUsage
	}
	if err := faultinject.ConfigureFromEnv(os.Getenv); err != nil {
		fmt.Fprintf(os.Stderr, "wise-serve: %v\n", err)
		return exitUsage
	}
	// Feedback-loop flags are validated before any IO: a nonsensical rate or
	// threshold is a usage error (exit 2) naming the flag, per RESILIENCE.md.
	switch {
	case *sessionBytes <= 0:
		fmt.Fprintf(os.Stderr, "wise-serve: -session-bytes %d must be positive\n", *sessionBytes)
		return exitUsage
	case *shadowRate < 0 || *shadowRate > 1:
		fmt.Fprintf(os.Stderr, "wise-serve: -shadow-rate %v out of range [0, 1]\n", *shadowRate)
		return exitUsage
	case *shadowWork <= 0:
		fmt.Fprintf(os.Stderr, "wise-serve: -shadow-workers %d must be positive\n", *shadowWork)
		return exitUsage
	case *driftWindow <= 0:
		fmt.Fprintf(os.Stderr, "wise-serve: -drift-window %d must be positive\n", *driftWindow)
		return exitUsage
	case *driftMin <= 0 || *driftMin > *driftWindow:
		fmt.Fprintf(os.Stderr, "wise-serve: -drift-min %d must be in 1..-drift-window (%d)\n", *driftMin, *driftWindow)
		return exitUsage
	case *driftTrip <= 0 || *driftTrip > 1:
		fmt.Fprintf(os.Stderr, "wise-serve: -drift-trip %v out of range (0, 1]\n", *driftTrip)
		return exitUsage
	}
	if *sessionSpill != "" {
		// Fail before binding the listener so a bad spill path names its flag.
		if err := os.MkdirAll(*sessionSpill, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "wise-serve: creating -session-spill %s: %v\n", *sessionSpill, err)
			return exitIO
		}
	}
	finishObs := obsFlags.MustStart()
	defer func() {
		if err := finishObs(); err != nil {
			fmt.Fprintf(os.Stderr, "wise-serve: %v\n", err)
		}
	}()

	s, err := serve.New(serve.Config{
		ModelPath:        *models,
		MaxInFlight:      *maxInflight,
		MaxQueue:         *maxQueue,
		QueueWait:        *queueWait,
		RequestTimeout:   *timeout,
		MaxBodyBytes:     *maxBody,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		ReloadPoll:       *reloadPoll,
		DrainTimeout:     *drain,
		SessionBytes:     *sessionBytes,
		SessionSpillDir:  *sessionSpill,
		RegistryDir:      *registryDir,
		ShadowRate:       *shadowRate,
		ShadowWorkers:    *shadowWork,
		DriftWindow:      *driftWindow,
		DriftMinSamples:  *driftMin,
		DriftTrip:        *driftTrip,
	})
	if err != nil {
		if *registryDir != "" {
			fmt.Fprintf(os.Stderr, "wise-serve: opening -registry %s with -models %s: %v\n", *registryDir, *models, err)
			return exitIO
		}
		fmt.Fprintf(os.Stderr, "wise-serve: loading -models %s: %v\n", *models, err)
		return exitIO
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wise-serve: listening on -addr %s: %v\n", *addr, err)
		return exitIO
	}
	// The resolved address (not the flag) so port 0 is usable by scripts.
	fmt.Printf("wise-serve: listening on http://%s (%d models from %s)\n",
		ln.Addr(), s.ModelCount(), *models)

	ctx, stop := resilience.SignalContext(context.Background())
	defer stop()
	err = s.Serve(ctx, ln)
	if errors.Is(err, context.Canceled) {
		fmt.Println("wise-serve: drained, shutting down")
		return exitInterrupted
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wise-serve: %v\n", err)
		return exitIO
	}
	return exitOK
}
