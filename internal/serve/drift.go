package serve

import "sync"

// driftDetector watches the stream of shadow-measurement outcomes for model
// drift: the fraction of recent samples whose measured speedup class
// disagreed with the serving model's prediction. It is a windowed rate with
// hysteresis — tripping at trip, clearing only back below trip/2 — and a
// minimum-sample floor so a couple of unlucky first measurements cannot
// trigger a retrain.
type driftDetector struct {
	window     int
	minSamples int
	trip       float64 // clears back at trip/2

	mu      sync.Mutex
	ring    []bool // guarded by mu; last window mismatch outcomes
	next    int    // guarded by mu; ring write cursor
	filled  int    // guarded by mu; samples recorded, capped at window
	tripped bool   // guarded by mu
}

func newDriftDetector(window, minSamples int, trip float64) *driftDetector {
	return &driftDetector{
		window:     window,
		minSamples: minSamples,
		trip:       trip,
		ring:       make([]bool, window),
	}
}

// record folds one shadow outcome into the window and returns the current
// mismatch rate and tripped state. The rate is over the filled window; the
// tripped flag latches at rate >= trip (once minSamples are in) and releases
// only at rate <= trip/2, so a rate hovering at the threshold cannot flap the
// retrain machinery.
func (d *driftDetector) record(mismatch bool) (rate float64, tripped bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ring[d.next] = mismatch
	d.next = (d.next + 1) % d.window
	if d.filled < d.window {
		d.filled++
	}
	n := 0
	for i := 0; i < d.filled; i++ {
		if d.ring[i] {
			n++
		}
	}
	rate = float64(n) / float64(d.filled)
	if d.filled >= d.minSamples {
		switch {
		case !d.tripped && rate >= d.trip:
			d.tripped = true
			driftTrips.Inc()
		case d.tripped && rate <= d.trip/2:
			d.tripped = false
		}
	}
	d.updateGaugesLocked(rate)
	return rate, d.tripped
}

// isTripped reports the latched drift state.
func (d *driftDetector) isTripped() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tripped
}

// reset clears the window and the latch — called after a promotion or
// rollback, when the serving generation changed and the old window's
// mismatches describe a model that no longer serves.
func (d *driftDetector) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.ring {
		d.ring[i] = false
	}
	d.next, d.filled = 0, 0
	d.tripped = false
	d.updateGaugesLocked(0)
}

func (d *driftDetector) updateGaugesLocked(rate float64) {
	driftRate.Set(rate)
	if d.tripped {
		driftTrippedG.Set(1)
	} else {
		driftTrippedG.Set(0)
	}
}
