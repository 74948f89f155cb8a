package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/kernels"
	"wise/internal/matrix"
	"wise/internal/obs"
	"wise/internal/resilience/faultinject"
)

// shadowJob is one sampled /predict request queued for off-path measurement:
// the inspection the server answered from, and the generation that produced
// it (so a reload mid-flight cannot attribute a measurement to the wrong
// model).
type shadowJob struct {
	m    *matrix.CSR
	feat features.Features
	sel  core.Selection
	lm   *loadedModel
}

// measureFunc measures the selected method against the CSR baseline for one
// shadow job, honouring the deadline. Returns wall-clock seconds for the
// selected method and the baseline. Injectable so the deterministic
// feedback-loop tests can dictate outcomes without timing real kernels.
type measureFunc func(job shadowJob, deadline time.Time) (tSel, tBase float64, err error)

// errShadowDeadline marks a measurement abandoned at its deadline.
var errShadowDeadline = errors.New("serve: shadow measurement deadline exceeded")

// Fixed bounds of the shadow lane.
const (
	shadowQueue  = 16              // pending measurements; more are dropped
	shadowBudget = 2 * time.Second // per-measurement deadline
	shadowMaxNNZ = 2_000_000       // larger matrices are skipped
)

// sample draws whether a stateless /predict is shadow-measured: every
// period-th request is, the first one included. It is drawn before the
// body is read, so only a sampled request reads the values a measurement
// multiplies with. Counter-based sampling, not a coin flip, keeps the
// feedback-loop tests reproducible and spreads load evenly.
func (f *feedback) sample() bool {
	return (f.seen.Add(1)-1)%f.period == 0
}

// offer queues a sampled healthy prediction, read with its values, for the
// shadow workers, off the request path; a full queue drops it
// (shadow_dropped).
func (f *feedback) offer(in inspection, lm *loadedModel) {
	if in.m.NNZ() > shadowMaxNNZ {
		shadowSkipped.Inc()
		return
	}
	select {
	case f.jobs <- shadowJob{m: in.m, feat: in.feat, sel: in.sel, lm: lm}:
		shadowSampled.Inc()
	default:
		shadowDropped.Inc()
	}
}

// measureJob measures one job inside the quarantine: a panic (including the
// injected shadow.exec.panic fault) is recovered and counted, a deadline
// overrun is counted and abandoned, and only a clean measurement reaches
// onResult. Shadow execution shares a process with serving, so this
// boundary is what keeps a pathological sampled matrix from becoming a
// crashed server.
func (f *feedback) measureJob(job shadowJob) {
	defer func() {
		if rec := recover(); rec != nil {
			shadowPanics.Inc()
			obs.Verbosef("serve: shadow measurement panicked (quarantined): %v", rec)
		}
	}()
	if err := faultinject.Hit("shadow.exec.panic"); err != nil {
		panic(fmt.Sprintf("injected: %v", err))
	}
	start := time.Now()
	tSel, tBase, err := f.measure(job, start.Add(shadowBudget))
	shadowSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		if errors.Is(err, errShadowDeadline) {
			shadowDeadline.Inc()
		} else {
			obs.Verbosef("serve: shadow measurement failed: %v", err)
		}
		return
	}
	f.onResult(job, tSel, tBase)
}

// measureKernels is the production measureFunc: build the selected format
// and the generation's CSR fallback, run each serially (one warmup, then
// minimum over reps), and report wall-clock seconds, abandoning at the
// deadline. Serial execution keeps the shadow lane from stealing the
// parallel workers that serve requests; the relative time of two serial
// runs is what perf.ClassOf classifies.
func measureKernels(job shadowJob, deadline time.Time) (tSel, tBase float64, err error) {
	const reps = 3
	m, lm := job.m, job.lm
	x, y := matrix.Ones(m.Cols), make([]float64, m.Rows)
	t := [2]float64{math.Inf(1), math.Inf(1)}
	for i, method := range []kernels.Method{job.sel.Method, lm.w.Models[lm.fallback].Method} {
		f := kernels.Build(m, method, lm.w.Mach.RowBlock)
		for rep := -1; rep < reps; rep++ { // rep -1 is the warmup: page in the format
			if time.Now().After(deadline) {
				return 0, 0, errShadowDeadline
			}
			t0 := time.Now()
			f.SpMV(y, x)
			if d := time.Since(t0).Seconds(); rep >= 0 && d < t[i] {
				t[i] = d
			}
		}
	}
	return t[0], t[1], nil
}
