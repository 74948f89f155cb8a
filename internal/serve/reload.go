package serve

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"wise/internal/core"
	"wise/internal/machine"
	"wise/internal/obs"
	"wise/internal/registry"
	"wise/internal/resilience"
	"wise/internal/resilience/faultinject"
)

// loadedModel is one immutable generation of the serving model: the trained
// framework, the precomputed index of the cheapest (CSR) method used as the
// degradation fallback, and the backing-store identity that change polling
// compares against. Generations are swapped atomically; in-flight requests
// keep the pointer they started with.
type loadedModel struct {
	w        *core.WISE
	fallback int    // index into w.Space() of the lowest-preprocessing method
	genID    string // registry generation ID ("" for file-backed models)

	// Identity of the watched file at load time: the model file, or the
	// registry manifest. sum is the envelope's declared payload sha256
	// ("" for legacy non-enveloped files), the tiebreaker that catches
	// same-mtime rewrites on coarse-timestamp filesystems.
	mtime time.Time
	size  int64
	sum   string
}

// fallbackSelection is the degraded answer: the generation's lowest-
// preprocessing-cost method (CSR in any paper-shaped model space).
func (lm *loadedModel) fallbackSelection() core.Selection {
	return core.Selection{Method: lm.w.Models[lm.fallback].Method, Index: lm.fallback}
}

// modelHolder owns the current generation and the reload protocol. It
// watches path (the -models file, or reg's manifest) and loads that file or
// reg's current generation. Only a fully valid candidate is swapped in: a
// corrupt file leaves the previous one serving (model_reloads_rejected).
type modelHolder struct {
	path string
	reg  *registry.Registry // nil: path is the model file itself
	cur  atomic.Pointer[loadedModel]
}

func newModelHolder(path string, reg *registry.Registry) (*modelHolder, error) {
	h := &modelHolder{path: path, reg: reg}
	lm, err := h.load()
	if err != nil {
		return nil, err
	}
	h.cur.Store(lm)
	return h, nil
}

// load validates the backing store into a fresh generation. The watched
// file's identity is taken before the load, so a write racing it shows up
// as a change on the next poll rather than being missed.
func (h *modelHolder) load() (*loadedModel, error) {
	fi, err := os.Stat(h.path)
	if err != nil && h.reg == nil {
		return nil, fmt.Errorf("serve: models %s: %w", h.path, err)
	}
	sum := peekSum(h.path)
	var w *core.WISE
	var genID string
	if h.reg != nil {
		gen, _, err := h.reg.Refresh()
		if err != nil {
			return nil, err
		}
		if gen == nil {
			return nil, fmt.Errorf("serve: registry %s is empty", h.reg.Dir())
		}
		w, genID = gen.W, gen.ID
	} else if w, err = core.Load(h.path, machine.Scaled()); err != nil {
		return nil, err
	}
	if len(w.Models) == 0 {
		return nil, fmt.Errorf("serve: models %s: empty model space", h.path)
	}
	lm := &loadedModel{w: w, genID: genID, sum: sum}
	for i, mm := range w.Models {
		if mm.Method.PreprocessRank() < w.Models[lm.fallback].Method.PreprocessRank() {
			lm.fallback = i
		}
	}
	if fi != nil {
		lm.mtime, lm.size = fi.ModTime(), fi.Size()
	}
	return lm, nil
}

// changed reports whether the watched file's identity differs from cur —
// the mtime-poll reload trigger. mtime or size moving is a change; when
// both match, the envelope checksum breaks the tie, so a same-size rewrite
// within one timestamp granule (coarse-timestamp filesystems, fast CI)
// still triggers a reload. Stat errors read as "unchanged": a transient
// missing file during an external atomic replace must not spam rejected
// reloads.
func (h *modelHolder) changed(cur *loadedModel) bool {
	fi, err := os.Stat(h.path)
	if err != nil {
		return false
	}
	if !fi.ModTime().Equal(cur.mtime) || fi.Size() != cur.size {
		return true
	}
	if cur.sum == "" {
		return false // legacy non-enveloped file: identity is mtime+size only
	}
	sum := peekSum(h.path)
	return sum != "" && sum != cur.sum
}

// peekSum reads the envelope header checksum, or "" when the file is
// legacy, unreadable, or mid-replace.
func peekSum(path string) string {
	sum, err := resilience.PeekHeaderChecksum(path)
	if err != nil {
		return ""
	}
	return sum
}

// current returns the serving generation.
func (h *modelHolder) current() *loadedModel { return h.cur.Load() }

// Reload validates the backing store and swaps it in. On any failure —
// including an injected serve.reload.corrupt fault standing in for a
// half-written or truncated file — the previous generation keeps serving
// and the rejection is counted; the error describes what was wrong.
func (h *modelHolder) Reload() error {
	lm, err := h.reloadCandidate()
	if err != nil {
		modelReloadsRejected.Inc()
		return fmt.Errorf("serve: reload rejected, keeping previous model: %w", err)
	}
	h.cur.Store(lm)
	modelReloads.Inc()
	return nil
}

func (h *modelHolder) reloadCandidate() (*loadedModel, error) {
	if err := faultinject.Hit("serve.reload.corrupt"); err != nil {
		return nil, err
	}
	return h.load()
}

// watch drives hot reload until ctx is cancelled: SIGHUP forces a reload,
// and every poll interval the backing-store identity is compared against
// the serving generation. Reload failures are reported through the counter
// and verbose log only — a bad file must never take down a serving process.
func (h *modelHolder) watch(ctx context.Context, poll time.Duration) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	if poll <= 0 {
		poll = time.Hour // SIGHUP-only reload; the ticker just parks
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			h.logReload(h.Reload())
		case <-tick.C:
			if h.changed(h.current()) {
				h.logReload(h.Reload())
			}
		}
	}
}

func (h *modelHolder) logReload(err error) {
	if err != nil {
		obs.Verbosef("serve: %v", err)
		return
	}
	obs.Verbosef("serve: reloaded models from %s (%d models)", h.path, len(h.current().w.Models))
}
