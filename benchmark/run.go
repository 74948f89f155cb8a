package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"wise/internal/core"
	"wise/internal/kernels"
	"wise/internal/obs"
	"wise/internal/session"
	"wise/internal/stats"
)

const (
	defaultSessionBytes = 256 << 20 // wise-serve's -session-bytes default
	openLoopGrace       = 2 * time.Second
	rssInterval         = 100 * time.Millisecond

	// A run is valid when the paced generator kept to its schedule and
	// enough ops were attempted for stable percentiles.
	maxPacedLagMS = 2
	minValidOps   = 1000
)

// env is what every run shares: the built server, the model fixture, and
// the run length.
type env struct {
	root      string
	buildDir  string
	serverBin string
	modelPath string
	modelRaw  []byte
	model     *core.WISE
	seconds   time.Duration
	setups    int // server set-ups per untraced run; setup_s is their median
}

// inputs are one workload's generated inputs for a seed and the answers
// every op on them must get.
type inputs struct {
	w      *workload
	seed   int64
	bodies [][]byte
	exp    []expected
}

// clients returns one client per connection, each sending to target(c).
func (in *inputs) clients(target func(c int) target, recs []*recorder) []*client {
	out := make([]*client, in.w.clients)
	for c := range out {
		out[c] = &client{id: c, w: in.w, seed: in.seed, bodies: in.bodies, exp: in.exp, t: target(c)}
		if recs != nil {
			out[c].rec = recs[c]
		}
	}
	return out
}

// runOutcome is one run of one workload.
type runOutcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Digest    string             `json:"digest"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
	Warnings  []string           `json:"warnings,omitempty"` // validity rules the run broke
}

// runWorkload generates the workload's inputs for seed, checks them against
// the in-process reference, sets the server up e.setups times, and measures
// the last set-up for e.seconds. A traced run sets up once and then replays
// the schedule in-process for the per-layer metrics, writing the spans to
// traceOut. An error means the run could not be measured at all.
func runWorkload(ctx context.Context, e *env, w *workload, seed int64, trace bool, traceOut string) (*runOutcome, error) {
	bodies, err := w.bodies(seed)
	if err != nil {
		return nil, err
	}
	out := &runOutcome{Workload: w.name, Seed: seed, Trace: trace, Digest: digest(w, seed, e.modelRaw, bodies)}
	if want, ok := seed1Digests[w.name]; seed == 1 && ok && want != out.Digest {
		return nil, fmt.Errorf("benchmark: %s seed-1 input digest %s, recorded %s: the generated inputs, "+
			"schedule or model fixture changed", w.name, out.Digest, want)
	}
	var refRec *recorder
	if trace {
		refRec = newRecorder(time.Now(), 0, phaseRef)
	}
	exp, err := reference(ctx, w, e.model, bodies, refRec)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, bodies: bodies, exp: exp}

	setups := e.setups
	if trace {
		setups = 1
	}
	var setupSeconds []float64
	var live *liveRun
	for k := 0; k < setups; k++ {
		lr, err := setUp(ctx, e, in)
		if err != nil {
			return nil, err
		}
		setupSeconds = append(setupSeconds, lr.setup.Seconds())
		if k == setups-1 {
			live = lr
			break
		}
		if code, err := lr.shutdown(); err != nil || code != exitInterrupted {
			return nil, fmt.Errorf("benchmark: wise-serve drain after set-up exited %d: %v", code, err)
		}
	}
	ps, values, code, err := live.measure(ctx, in, e.seconds)
	if err != nil {
		return nil, err
	}
	values["setup_s"] = median(setupSeconds)
	out.Attempted, out.Failed, out.Errors = ps.attempted, ps.failed, ps.errors
	if code != exitInterrupted {
		out.Errors = append(out.Errors, fmt.Sprintf("wise-serve drain exited %d, want %d", code, exitInterrupted))
	}
	out.Correct = out.Failed == 0 && code == exitInterrupted
	if lag := values["loadgen.lag_ms_p90"]; w.open() && lag > maxPacedLagMS {
		out.Warnings = append(out.Warnings, fmt.Sprintf("paced generator lag p90 %.3g ms exceeds %d ms", lag, maxPacedLagMS))
	}
	if out.Attempted < minValidOps {
		out.Warnings = append(out.Warnings, fmt.Sprintf("%d ops attempted, fewer than %d", out.Attempted, minValidOps))
	}

	if trace {
		layers, err := traceLayers(ctx, e, in, refRec, ps.serviceP50[w.mainOp], traceOut)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			values[k] = v
		}
	}
	out.Metrics = values
	return out, nil
}

// traceLayers replays the workload in-process three times and returns the
// span-based per-layer metrics. The first replay runs untraced for a
// quarter of the run; it fixes how many ops the other two run and absorbs
// the first replay's cost of faulting in fresh memory. The second records
// spans and the third does not; their times give the tracing overhead. It
// writes the reference pass's and the traced replay's spans to traceOut,
// or to the build directory when traceOut is empty.
func traceLayers(ctx context.Context, e *env, in *inputs, refRec *recorder, serviceP50 float64, traceOut string) (map[string]float64, error) {
	per, _, err := replay(ctx, e, in, nil, nil, e.seconds/4)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(per))
	for c, p := range per {
		counts[c] = len(p)
	}
	recs := make([]*recorder, in.w.clients)
	for c := range recs {
		recs[c] = newRecorder(refRec.epoch, c+1, phaseSetup)
	}
	_, on, err := replay(ctx, e, in, recs, counts, 0)
	if err != nil {
		return nil, err
	}
	_, off, err := replay(ctx, e, in, nil, counts, 0)
	if err != nil {
		return nil, err
	}
	all := append([]*recorder{refRec}, recs...)
	if traceOut == "" {
		traceOut = filepath.Join(e.buildDir, fmt.Sprintf("trace-%s-%d.json", in.w.name, in.seed))
	}
	if err := writeChromeTrace(traceOut, all); err != nil {
		return nil, err
	}
	return layerMetrics(in.w, all, serviceP50, on.Seconds()/off.Seconds()-1), nil
}

// liveRun is a server that has been set up and warmed, with the clients
// that will measure it.
type liveRun struct {
	srv     *server
	http    *httpTarget
	sch     *schedule
	clients []*client
	setup   time.Duration
}

// setUp starts the server and runs the workload's set-up ops. The time from
// starting the process to the end of warm-up is the run's set-up time.
func setUp(ctx context.Context, e *env, in *inputs) (*liveRun, error) {
	start := time.Now()
	srv, err := startServer(ctx, e.serverBin, e.root, e.modelPath, in.w.serverFlags())
	if err != nil {
		return nil, err
	}
	lr := &liveRun{srv: srv, http: newHTTPTarget(srv.url, in.w.clients), sch: newSchedule(in.w, in.seed)}
	lr.clients = in.clients(func(int) target { return lr.http }, nil)
	if err := waitReady(ctx, lr.http); err != nil {
		lr.abort()
		return nil, err
	}
	if err := prime(ctx, in.w, lr.sch, lr.clients); err != nil {
		lr.abort()
		return nil, err
	}
	lr.setup = time.Since(start)
	return lr, nil
}

func (lr *liveRun) abort() {
	lr.http.close()
	lr.srv.kill()
}

// shutdown drains the server and returns its exit code.
func (lr *liveRun) shutdown() (int, error) {
	lr.http.close()
	return lr.srv.stop()
}

// measure runs the measured phase while sampling the server's resident
// memory, then reads its counters and peak memory and drains it. It returns
// the load generator's numbers, every end-to-end and counter metric by
// name, and the drain's exit code.
func (lr *liveRun) measure(ctx context.Context, in *inputs, d time.Duration) (phaseStats, map[string]float64, int, error) {
	w := in.w
	before, err := metricz(ctx, lr.http)
	if err != nil {
		lr.abort()
		return phaseStats{}, nil, 0, err
	}
	stop := make(chan struct{})
	sampled := make(chan []float64, 1)
	go func() { sampled <- lr.srv.sampleRSS(stop, rssInterval) }()
	var ps phaseStats
	if w.open() {
		start := time.Now()
		samples, unsent := openLoop(ctx, wallClock{}, w.clients, w.rate, start, start.Add(d), openLoopGrace, warmupOps,
			func(s, j int) result { return lr.clients[s].do(ctx, lr.sch.shared(j)) })
		ps = summarize(samples, unsent)
	} else {
		per := closedLoop(ctx, wallClock{}, w.clients, warmupOps/w.clients, nil, time.Now().Add(d),
			func(c, i int) result { return lr.clients[c].do(ctx, lr.sch.closed(c, i)) })
		ps = summarize(flatten(per), 0)
	}
	close(stop)
	rss := <-sampled
	after, err := metricz(ctx, lr.http)
	if err == nil && len(rss) == 0 {
		err = fmt.Errorf("benchmark: no memory samples of wise-serve")
	}
	var peak float64
	if err == nil {
		peak, err = lr.srv.memMiB("VmHWM")
	}
	if err != nil {
		lr.abort()
		return phaseStats{}, nil, 0, err
	}
	code, err := lr.shutdown()
	if err != nil {
		return phaseStats{}, nil, 0, err
	}
	values := counterDeltas(before, after)
	for k, v := range ps.metrics {
		values[k] = v
	}
	values["server_rss_mb"] = median(rss)
	values["serve.peak_rss_mb"] = peak
	return ps, values, code, nil
}

// prime runs a workload's set-up ops on the clients — the pool uploads,
// then the warm-up — and fails unless every one succeeds.
func prime(ctx context.Context, w *workload, sch *schedule, clients []*client) error {
	n := len(clients)
	if w.uploadPool {
		counts := make([]int, n)
		for i := range w.pool {
			counts[i%n]++
		}
		per := closedLoop(ctx, wallClock{}, n, 0, counts, time.Time{},
			func(c, i int) result { return clients[c].do(ctx, op{kind: opUpload, item: i*n + c}) })
		if errs := firstErrors(flatten(per), 3); len(errs) > 0 {
			return fmt.Errorf("benchmark: %s set-up upload failed: %s", w.name, strings.Join(errs, "; "))
		}
	}
	counts := make([]int, n)
	for c := range counts {
		counts[c] = warmupOps / n
	}
	per := closedLoop(ctx, wallClock{}, n, 0, counts, time.Time{},
		func(c, i int) result { return clients[c].do(ctx, sch.closed(c, i)) })
	if errs := firstErrors(flatten(per), 3); len(errs) > 0 {
		return fmt.Errorf("benchmark: %s warm-up failed: %s", w.name, strings.Join(errs, "; "))
	}
	return ctx.Err()
}

// replay runs the workload's set-up, warm-up and measured ops in-process,
// with the load's concurrency, on a fresh session store sized like the
// server's. recs, when given, record spans. counts fixes each client's
// measured op count; with counts nil the measured phase runs for d. It
// returns the measured samples and the measured phase's wall time.
func replay(ctx context.Context, e *env, in *inputs, recs []*recorder, counts []int, d time.Duration) ([][]sample, time.Duration, error) {
	w := in.w
	budget := w.sessionBytes
	if budget == 0 {
		budget = defaultSessionBytes
	}
	store, err := session.Open(session.Config{MaxBytes: budget, RowBlock: e.model.Mach.RowBlock})
	if err != nil {
		return nil, 0, err
	}
	clients := in.clients(func(c int) target {
		l := &local{model: e.model, store: store, workers: kernels.DefaultWorkers()}
		if recs != nil {
			l.rec = recs[c]
		}
		return l
	}, recs)
	sch := newSchedule(w, in.seed)
	if err := prime(ctx, w, sch, clients); err != nil {
		return nil, 0, err
	}
	for _, r := range recs {
		r.setPhase(phaseMeasured)
	}
	start := time.Now()
	per := closedLoop(ctx, wallClock{}, w.clients, warmupOps/w.clients, counts, start.Add(d),
		func(c, i int) result { return clients[c].do(ctx, sch.closed(c, i)) })
	elapsed := time.Since(start)
	if errs := firstErrors(flatten(per), 3); len(errs) > 0 {
		return nil, 0, fmt.Errorf("benchmark: %s replay failed: %s", w.name, strings.Join(errs, "; "))
	}
	return per, elapsed, ctx.Err()
}

// counterDeltas turns the server's counters before and after the measured
// phase into the per-layer counts.
func counterDeltas(before, after *obs.Snapshot) map[string]float64 {
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hits, misses := delta("session.hits"), delta("session.misses")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	return map[string]float64{
		"kernels.formats_built":   delta("kernels.formats_built"),
		"kernels.spmv_calls":      delta("kernels.spmv_calls"),
		"session.builds":          delta("session.builds"),
		"session.evictions":       delta("session.evictions"),
		"session.bytes_end":       after.Gauges["session.bytes"] / (1 << 20),
		"session.hit_ratio":       hitRatio,
		"serve.requests_shed":     delta("serve.requests_shed"),
		"serve.requests_degraded": delta("serve.requests_degraded"),
	}
}

// layerMetrics derives the span-based per-layer metrics. Per-call medians
// take every span of the call (reference pass and replay), conversions
// only where the layout changes; busy shares take the replay's measured
// ops only. serviceP50 is the HTTP run's median send-to-answer time of the
// workload's main op, in milliseconds.
func layerMetrics(w *workload, recs []*recorder, serviceP50, overhead float64) map[string]float64 {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	calls := map[string][]float64{} // self time by span name, microseconds
	busy := map[string]float64{}    // measured self time by layer
	var opTime float64              // measured op time
	var mainOps []float64           // measured main-op durations
	var execWork, execTime float64
	type chainPair struct{ selected, csr float64 }
	refChains := map[int64]*chainPair{}
	for _, r := range recs {
		self := r.selfTimes()
		for i, s := range r.spans {
			if s.parent < 0 {
				if s.phase == phaseMeasured {
					opTime += us(s.dur())
					if s.name == "op."+w.mainOp.String() {
						mainOps = append(mainOps, us(s.dur()))
					}
				}
				continue
			}
			if s.name != "kernels.convert" || s.work > 0 {
				calls[s.name] = append(calls[s.name], us(self[i]))
			}
			if s.phase == phaseMeasured {
				busy[s.layer()] += us(self[i])
			}
			switch {
			case s.name == "kernels.exec":
				execWork += float64(s.work)
				execTime += s.dur().Seconds()
			case s.phase == phaseRef && (s.name == "kernels.spmv_parallel" || s.name == "kernels.csr_parallel"):
				p := refChains[s.op]
				if p == nil {
					p = &chainPair{}
					refChains[s.op] = p
				}
				if s.name == "kernels.spmv_parallel" {
					p.selected += us(s.dur())
				} else {
					p.csr += us(s.dur())
				}
			}
		}
	}
	p50 := func(name string) float64 { return stats.Percentile(calls[name], 50) }
	csr := p50("kernels.csr_serial")
	equiv := func(v float64) float64 {
		if csr <= 0 {
			return 0
		}
		return v / csr
	}
	share := func(layer string) float64 {
		if opTime <= 0 {
			return 0
		}
		return busy[layer] / opTime
	}
	var vsCSR []float64
	for _, p := range refChains {
		if p.csr > 0 {
			vsCSR = append(vsCSR, p.selected/p.csr)
		}
	}
	gflops := 0.0
	if execTime > 0 {
		gflops = 2 * execWork / execTime / 1e9
	}
	return map[string]float64{
		"matrix.parse_us_p50":         p50("matrix.parse"),
		"matrix.parse_spmv_equiv":     equiv(p50("matrix.parse")),
		"matrix.busy_share":           share("matrix"),
		"features.extract_us_p50":     p50("features.extract"),
		"features.extract_spmv_equiv": equiv(p50("features.extract")),
		"features.busy_share":         share("features"),
		"core.infer_us_p50":           p50("core.infer"),
		"kernels.convert_us_p50":      p50("kernels.convert"),
		"kernels.convert_spmv_equiv":  equiv(p50("kernels.convert")),
		"kernels.exec_us_p50":         p50("kernels.exec") / float64(w.iterations),
		"kernels.exec_gflops":         gflops,
		"kernels.exec_vs_csr":         median(vsCSR),
		"kernels.csr_serial_us_p50":   csr,
		"kernels.busy_share":          share("kernels"),
		"session.fingerprint_us_p50":  p50("session.fingerprint"),
		"session.getorcreate_us_p50":  p50("session.getorcreate"),
		"session.acquire_us_p50":      p50("session.acquire"),
		"session.busy_share":          share("session"),
		"serve.encode_us_p50":         p50("serve.encode"),
		"serve.unattributed_ms_p50":   serviceP50 - stats.Percentile(mainOps, 50)/1000,
		"trace.overhead_share":        overhead,
	}
}
