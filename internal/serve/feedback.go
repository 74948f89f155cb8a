package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wise/internal/core"
	"wise/internal/ml"
	"wise/internal/obs"
	"wise/internal/perf"
	"wise/internal/registry"
	"wise/internal/resilience/faultinject"
)

// Fixed tuning of the self-healing loop; the knobs worth turning are
// wise-serve flags (Config).
const (
	retrainMinSamples = 8                // labels required to retrain
	retrainDeadline   = 30 * time.Second // quarantined training budget
	canaryHoldout     = 0.25             // held-out validation fraction
	canarySeed        = 1                // holdout-split seed
	shadowMaxSamples  = 512              // shadow-label store bound
)

// feedback is the self-healing loop around the serving model (RESILIENCE.md
// "Self-healing serving"): shadow measurements (shadow.go) accumulate as
// labels, the drift detector watches their mismatch rate, and when it trips
// the controller retrains over the accumulated labels, publishes the
// candidate to the crash-safe registry, and promotes it only through the
// canary gate. A promotion opens a probation window of 2*DriftMinSamples
// samples; drift tripping inside it rolls the registry back to the previous
// generation instead of retraining — the automatic response to a promoted
// model that regresses in production.
type feedback struct {
	cfg     Config
	reg     *registry.Registry // nil: shadow+drift metrics only, no retrain
	models  *modelHolder
	drift   *driftDetector
	kick    chan struct{}
	jobs    chan shadowJob
	period  uint64 // shadow-sample every period-th stateless /predict
	seen    atomic.Uint64
	measure measureFunc

	mu            sync.Mutex
	labels        []perf.MatrixLabels // guarded by mu; bounded shadow-label store
	probationLeft int                 // guarded by mu; samples left in post-promotion probation
	skip          map[string]bool     // guarded by mu; generation IDs rolled back, never re-promoted
}

func newFeedback(cfg Config, models *modelHolder) *feedback {
	f := &feedback{
		cfg:     cfg,
		reg:     models.reg,
		models:  models,
		drift:   newDriftDetector(cfg.DriftWindow, cfg.DriftMinSamples, cfg.DriftTrip),
		kick:    make(chan struct{}, 1),
		jobs:    make(chan shadowJob, shadowQueue),
		period:  uint64(math.Round(1 / cfg.ShadowRate)),
		measure: cfg.ShadowMeasure,
		skip:    make(map[string]bool),
	}
	if f.measure == nil {
		f.measure = measureKernels
	}
	return f
}

// run drives the loop until ctx cancels: the shadow workers draining jobs
// and the single control goroutine that reacts to drift trips. All
// goroutines are joined before returning, so Serve's drain contract holds.
func (f *feedback) run(ctx context.Context) {
	var wg sync.WaitGroup
	for i := 0; i < f.cfg.ShadowWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case job := <-f.jobs:
					f.measureJob(job)
				}
			}
		}()
	}
	defer wg.Wait()
	for {
		select {
		case <-ctx.Done():
			return
		case <-f.kick:
			f.onTrip(ctx)
		}
	}
}

// onResult folds one completed shadow measurement into the loop: classify
// the measured relative time, compare against the prediction the server
// answered with, store the corrected label, and feed the drift detector.
// Runs on shadow workers; everything shared is under mu or the detector's
// own lock.
func (f *feedback) onResult(job shadowJob, tSel, tBase float64) {
	if tBase <= 0 || job.lm != f.models.current() {
		return // measurement attributed to a generation no longer serving
	}
	measured := perf.ClassOf(tSel / tBase)
	shadowMeasured.Inc()
	mismatch := measured != job.sel.PredictedClass
	if mismatch {
		shadowMismatch.Inc()
	}
	f.storeLabel(job, measured)
	_, tripped := f.drift.record(mismatch)
	if tripped {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	}
}

// storeLabel converts a measurement into a training label: the served
// prediction vector with the selected method's class replaced by the
// measured one and the CSR baseline pinned to its by-definition class
// (relative time 1.0). The store is bounded at shadowMaxSamples, dropping
// the oldest label — the retrain should learn the recent workload.
func (f *feedback) storeLabel(job shadowJob, measured int) {
	classes := make([]int, len(job.sel.Classes))
	copy(classes, job.sel.Classes)
	classes[job.lm.fallback] = perf.ClassOf(1.0)
	classes[job.sel.Index] = measured
	label := perf.MatrixLabels{
		Rows: job.m.Rows, Cols: job.m.Cols, NNZ: int64(job.m.NNZ()),
		Features: job.feat,
		Methods:  job.lm.w.Space(),
		Classes:  classes,
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.labels = append(f.labels, label)
	if len(f.labels) > shadowMaxSamples {
		f.labels = f.labels[len(f.labels)-shadowMaxSamples:]
	}
	if f.probationLeft > 0 {
		f.probationLeft--
	}
}

// onTrip is the control reaction to a drift trip: inside the post-promotion
// probation window the promoted generation is presumed bad and rolled back;
// outside it the loop retrains from the accumulated labels. The whole
// reaction runs quarantined — a panic anywhere in the retrain/promote/
// rollback machinery (including an injected registry.publish.crash) must
// cost at most one reaction, never the control loop or the server; the
// still-tripped detector re-kicks and the registry's crash-safety makes the
// interrupted step resumable.
func (f *feedback) onTrip(ctx context.Context) {
	defer func() {
		if rec := recover(); rec != nil {
			retrainsFailed.Inc()
			obs.Verbosef("serve: feedback control crashed (quarantined): %v", rec)
		}
	}()
	if !f.drift.isTripped() || f.reg == nil {
		return
	}
	f.mu.Lock()
	probation := f.probationLeft > 0
	f.mu.Unlock()
	if probation {
		f.rollback()
		return
	}
	if err := f.retrain(ctx); err != nil {
		retrainsFailed.Inc()
		obs.Verbosef("serve: retrain failed: %v", err)
	}
}

// rollback reverts the registry to the previous generation, remembers the
// regressed generation so a later retrain cannot re-promote the same bytes,
// and resets the loop state for the restored model.
func (f *feedback) rollback() {
	badID := f.models.current().genID
	gen, err := f.reg.Rollback()
	if err != nil {
		obs.Verbosef("serve: drift during probation but rollback failed: %v", err)
		return
	}
	f.mu.Lock()
	if badID != "" {
		f.skip[badID] = true
	}
	f.mu.Unlock()
	f.restart(0)
	driftRollbacks.Inc()
	obs.Verbosef("serve: drift during probation; rolled back regressed generation %s to %s", badID, gen.ID)
}

// retrain runs the quarantined retrain-publish-canary sequence and returns
// its failure. Every failure path is contained: an injected or real
// training failure, a deadline overrun, or a canary rejection (not counted
// as a failure) leaves the serving generation untouched and is retried on a
// later trip (the kick re-fires while the detector stays tripped).
func (f *feedback) retrain(ctx context.Context) error {
	retrains.Inc()
	if err := faultinject.Hit("retrain.fail"); err != nil {
		return err
	}
	labels := f.snapshotLabels()
	if len(labels) < retrainMinSamples {
		obs.Verbosef("serve: drift tripped with %d labels (< %d); waiting for more samples",
			len(labels), retrainMinSamples)
		return nil
	}
	trainIdx, valIdx := ml.HoldoutSplit(len(labels), canaryHoldout, canarySeed)
	if len(trainIdx) == 0 || len(valIdx) == 0 {
		return nil
	}
	serving := f.models.current()
	cand, err := f.trainQuarantined(ctx, serving, pickLabels(labels, trainIdx))
	if err != nil {
		return err
	}
	gen, err := f.reg.Publish(cand)
	if err != nil {
		return fmt.Errorf("publishing retrained candidate: %w", err)
	}
	f.mu.Lock()
	skipped := f.skip[gen.ID]
	f.mu.Unlock()
	if skipped {
		obs.Verbosef("serve: candidate %s was rolled back before; not re-promoting", gen.ID)
		return nil
	}
	val := pickLabels(labels, valIdx)
	servingErr, candErr := selectionError(serving.w, val), selectionError(cand, val)
	if err := f.reg.GatedPromote(gen.ID, servingErr, candErr); errors.Is(err, registry.ErrRejected) {
		obs.Verbosef("serve: %v", err)
		return nil
	} else if err != nil {
		return fmt.Errorf("promoting retrained candidate: %w", err)
	}
	probation := 2 * f.cfg.DriftMinSamples
	f.restart(probation)
	obs.Verbosef("serve: promoted retrained generation %s (val error %.3f beat serving %.3f); probation %d samples",
		gen.ID, candErr, servingErr, probation)
	return nil
}

// restart serves the registry's new current generation after a promotion
// or rollback and starts the loop over for it: the old labels and drift
// window describe a model that no longer serves.
func (f *feedback) restart(probation int) {
	if err := f.models.Reload(); err != nil {
		obs.Verbosef("serve: %v", err)
	}
	f.mu.Lock()
	f.labels = nil
	f.probationLeft = probation
	f.mu.Unlock()
	f.drift.reset()
}

func (f *feedback) snapshotLabels() []perf.MatrixLabels {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]perf.MatrixLabels, len(f.labels))
	copy(out, f.labels)
	return out
}

func pickLabels(labels []perf.MatrixLabels, idx []int) []perf.MatrixLabels {
	out := make([]perf.MatrixLabels, len(idx))
	for i, j := range idx {
		out[i] = labels[j]
	}
	return out
}

// trainQuarantined fits the candidate in its own goroutine under the
// retrain deadline, with panic recovery — a training crash or hang must
// never take the control loop (or the server) with it. The goroutine always
// finishes into the buffered channel, so an abandoned deadline path leaks
// nothing past the training call itself.
func (f *feedback) trainQuarantined(ctx context.Context, serving *loadedModel, labels []perf.MatrixLabels) (*core.WISE, error) {
	type outcome struct {
		w   *core.WISE
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				ch <- outcome{err: fmt.Errorf("serve: retrain panicked: %v", rec)}
			}
		}()
		w, err := core.Train(labels, ml.DefaultTreeConfig(), serving.w.FeatureCfg, serving.w.Mach)
		ch <- outcome{w, err}
	}()
	timer := time.NewTimer(retrainDeadline)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.w, out.err
	case <-timer.C:
		return nil, fmt.Errorf("serve: retrain exceeded deadline %s", retrainDeadline)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// selectionError scores a model over held-out labels: the fraction of
// matrices where the model's method choice differs from the choice the
// measured classes dictate. This is the canary-gate metric — cheap, and
// directly the quantity serving quality depends on.
func selectionError(w *core.WISE, val []perf.MatrixLabels) float64 {
	wrong := 0
	for i := range val {
		sel := w.SelectFromFeatures(val[i].Features)
		if sel.Index != core.SelectFromClasses(val[i].Methods, val[i].Classes) {
			wrong++
		}
	}
	return float64(wrong) / float64(len(val))
}
