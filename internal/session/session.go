// Package session is the stateful layer of wise-serve: a content-addressed
// store of prepared matrices that amortizes the inspector cost (parse +
// feature extraction + prediction + format conversion) across repeated
// requests — the inspector-executor argument at the heart of WISE, served
// over HTTP. A matrix uploaded once is addressed thereafter by the sha256
// fingerprint of its bytes; warm predict and SpMV calls skip the entire
// preprocessing pipeline.
//
// State is where the failure modes live, so robustness is designed in
// (RESILIENCE.md "Stateful serving"):
//
//   - memory is bounded by a byte-budgeted LRU whose eviction is cost-aware
//     and refuses to evict entries pinned by in-flight executions; when the
//     budget is fully pinned the store reports ErrSaturated and the caller
//     degrades to its stateless path instead of refusing;
//   - concurrent identical uploads are collapsed by singleflight dedup: one
//     leader runs the build, waiters block with their own deadlines, and a
//     failed leader fails every waiter with the leader's error;
//   - entries optionally spill to disk inside resilience checksummed
//     envelopes, so a restart rehydrates sessions and a corrupt spill file
//     is quarantined and rebuilt, never fatal;
//   - four registered fault sites (session.spill.corrupt, session.evict.race,
//     session.singleflight.leaderfail, session.exec.panic) make the
//     crash/race windows deterministically testable.
//
// Lock ordering: Entry.execMu > Entry.mu > Store.mu. Store.mu guards the
// map, the LRU list, byte accounting, pins, and singleflight flights;
// Entry.mu guards the per-entry mutable prediction state and the matrix
// representation; execMu serializes kernel execution because some formats
// (SRVPack) carry scratch buffers and are not reentrant.
//
// A session holds one representation of its matrix. An SRVPack encodes the
// matrix completely (kernels.SRVPack.CSR is its exact inverse), so a packed
// entry drops its CSR and keeps only the shape; the CSR is rebuilt from the
// pack only when the session moves to another method. A CSR-selected entry
// keeps the CSR its format already wraps.
package session

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/kernels"
	"wise/internal/matrix"
	"wise/internal/resilience/faultinject"
)

// ErrSaturated reports that the byte budget cannot admit a new entry even
// after evicting every unpinned session — the store is full of pinned or
// irreducible state. Callers fall back to their stateless path; saturation
// is degradation, never refusal.
var ErrSaturated = errors.New("session: store saturated: byte budget held by pinned sessions")

// Config sizes the store.
type Config struct {
	// MaxBytes is the byte budget for cached sessions (matrix + features +
	// converted format, estimated analytically). Required, > 0.
	MaxBytes int64
	// SpillDir, when non-empty, enables disk spill of prepared sessions in
	// checksummed envelopes; Open rehydrates it.
	SpillDir string
	// RowBlock is the kernels row-block parameter used when a rehydrated or
	// re-predicted entry rebuilds its converted format; 0 selects the
	// kernels default, the same row block kernels.Build gives a fresh build.
	RowBlock int
}

// Prepared is the product of one full inspector pass over an uploaded
// matrix: everything a warm request needs to skip preprocessing entirely.
// The store keeps M only while Format is not an SRVPack.
type Prepared struct {
	M      *matrix.CSR
	Feat   features.Features
	Sel    core.Selection
	GenID  string         // model generation the selection came from
	Format kernels.Format // may be nil; rebuilt lazily on first execution
}

// Entry is one cached session. Entries are handed out pinned (Acquire /
// GetOrCreate) and must be released; a pinned entry is never evicted.
type Entry struct {
	fp   string
	cost int64

	// LRU bookkeeping and resident-byte accounting, protected by the owning
	// Store's mu.
	elem     *list.Element
	pins     int
	resident int64 // bytes of the CSR and format the entry holds

	mu           sync.Mutex
	sel          core.Selection // guarded by mu
	genID        string         // guarded by mu
	format       kernels.Format // guarded by mu
	formatMethod kernels.Method // guarded by mu; the method format was built for
	// m is nil exactly while format is an SRVPack, which then holds the
	// session's only copy of the matrix.
	m *matrix.CSR // guarded by mu

	// execMu serializes kernel execution: SRVPack and friends carry scratch
	// buffers, so one format instance must not run two SpMVs concurrently.
	execMu sync.Mutex

	// Immutable after construction.
	shape matrix.Shape
	feat  features.Features
}

// Fingerprint returns the content address of the session's matrix.
func (e *Entry) Fingerprint() string { return e.fp }

// Matrix returns the session's matrix (callers must not mutate it). A
// packed session holds no CSR, so for it every call reconstructs one from
// the pack: exact, but O(nnz) time and memory. It is not for request paths,
// which read Shape.
func (e *Entry) Matrix() *matrix.CSR {
	e.mu.Lock()
	m, f := e.m, e.format
	e.mu.Unlock()
	if m != nil {
		return m
	}
	return f.(*kernels.SRVPack).CSR()
}

// Shape returns the dimensions and nonzero count of the session's matrix.
func (e *Entry) Shape() matrix.Shape { return e.shape }

// Features returns the cached extracted features.
func (e *Entry) Features() features.Features { return e.feat }

// Selection returns the entry's current method selection and the model
// generation it was predicted under.
func (e *Entry) Selection() (core.Selection, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sel, e.genID
}

// Stats is a point-in-time snapshot of one store's state and lifetime
// counters (per-store, unlike the process-wide obs instruments, so tests
// with several stores can assert deltas precisely).
type Stats struct {
	Entries       int
	PinnedEntries int
	Bytes         int64 // charged against MaxBytes: preparedCost per entry
	ResidentBytes int64 // CSR and format bytes the entries actually hold
	MaxBytes      int64

	Hits              int64 // fingerprint found in cache
	Misses            int64 // fingerprint absent, build started
	Builds            int64 // inspector passes actually run
	Converts          int64 // lazy format rebuilds (rehydration, generation change)
	Evictions         int64
	EvictionsRefused  int64 // eviction passes abandoned (injected race / all pinned)
	Saturations       int64 // inserts refused by the byte budget
	SingleflightWaits int64 // requests that waited on another upload's build
	LeaderFailures    int64 // singleflight leaders whose build failed
	Spills            int64 // sessions written to the spill dir
	Recoveries        int64 // sessions rehydrated from spill on Open
	Quarantined       int64 // corrupt spill files quarantined on Open
}

// Store is the content-addressed session cache. All exported methods are
// safe for concurrent use.
type Store struct {
	maxBytes int64
	spillDir string
	rowBlock int

	mu       sync.Mutex
	entries  map[string]*list.Element // guarded by mu; values hold *Entry
	lru      *list.List               // guarded by mu; front = most recent
	flights  map[string]*flight       // guarded by mu
	bytes    int64                    // guarded by mu
	resident int64                    // guarded by mu
	pinned   int                      // guarded by mu; entries with pins > 0
	stats    Stats                    // guarded by mu (counter fields)
}

// flight is one in-progress build: the leader closes done exactly once with
// either e or err set; waiters registered before completion have their pin
// pre-granted by the leader.
type flight struct {
	done    chan struct{}
	waiters int // protected by the store's mu
	e       *Entry
	err     error
}

// Fingerprint returns the content address of a request body: the hex sha256
// of its raw bytes.
func Fingerprint(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// Open creates a store and, when cfg.SpillDir is set, rehydrates every
// valid spilled session from it. Corrupt spill files are quarantined (file
// renamed, counter bumped, session rebuilt on next upload) — a damaged
// spill dir never prevents startup.
func Open(cfg Config) (*Store, error) {
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("session: MaxBytes must be positive, got %d", cfg.MaxBytes)
	}
	s := &Store{
		maxBytes: cfg.MaxBytes,
		spillDir: cfg.SpillDir,
		rowBlock: cfg.RowBlock,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		flights:  make(map[string]*flight),
		stats:    Stats{MaxBytes: cfg.MaxBytes},
	}
	if s.spillDir != "" {
		if err := os.MkdirAll(s.spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("session: creating spill dir: %w", err)
		}
		if err := s.rehydrate(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// BuildFunc runs one inspector pass for a fingerprint that missed the
// cache. It is called outside all store locks.
type BuildFunc func(ctx context.Context) (*Prepared, error)

// GetOrCreate returns the pinned session for fp, building it with build on
// a miss. Concurrent calls for the same fingerprint are collapsed: one
// leader runs build, the rest wait (bounded by their own ctx); a failed
// leader propagates its error to every waiter. hit is true when the call
// did not run build itself (cache hit or singleflight waiter). The caller
// must Release the returned entry.
func (s *Store) GetOrCreate(ctx context.Context, fp string, build BuildFunc) (e *Entry, hit bool, err error) {
	s.mu.Lock()
	if el, ok := s.entries[fp]; ok {
		e := el.Value.(*Entry)
		s.pinLocked(e)
		s.lru.MoveToFront(el)
		s.stats.Hits++
		s.mu.Unlock()
		sessionHits.Inc()
		return e, true, nil
	}
	if fl, ok := s.flights[fp]; ok {
		fl.waiters++
		s.stats.SingleflightWaits++
		s.mu.Unlock()
		singleflightWaits.Inc()
		return s.waitFlight(ctx, fl)
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[fp] = fl
	s.stats.Misses++
	s.mu.Unlock()
	sessionMisses.Inc()
	return s.lead(ctx, fp, fl, build)
}

// lead runs the build as the singleflight leader and completes the flight:
// on success the entry is inserted pinned once for the leader plus once per
// waiter; on failure (including an injected session.singleflight.leaderfail
// or a saturated budget) every waiter receives the leader's error.
func (s *Store) lead(ctx context.Context, fp string, fl *flight, build BuildFunc) (*Entry, bool, error) {
	var p *Prepared
	err := faultinject.Hit("session.singleflight.leaderfail")
	if err == nil {
		s.mu.Lock()
		s.stats.Builds++
		s.mu.Unlock()
		sessionBuilds.Inc()
		p, err = build(ctx)
	} else {
		err = fmt.Errorf("session: build for %s failed: %w", shortFP(fp), err)
	}

	e, insertErr := s.completeFlight(fp, fl, p, err)
	if insertErr != nil {
		return nil, false, insertErr
	}
	// Spill outside the store lock; a panic here (the injected
	// crash-mid-spill) leaves a consistent in-memory store and at worst an
	// uncommitted temp file on disk.
	if s.spillDir != "" {
		s.spill(e, p)
	}
	return e, false, nil
}

// completeFlight finishes the flight under the store lock: insert on
// success (pre-granting one pin per registered waiter), record the leader's
// error otherwise, and wake everyone.
func (s *Store) completeFlight(fp string, fl *flight, p *Prepared, buildErr error) (*Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.flights, fp)
	err := buildErr
	var e *Entry
	if err == nil {
		e, err = s.insertLocked(fp, p, 1+fl.waiters)
	}
	if err != nil {
		if fl.waiters > 0 || buildErr != nil {
			s.stats.LeaderFailures++
			singleflightLeaderFails.Inc()
		}
		fl.err = err
		close(fl.done)
		return nil, err
	}
	fl.e = e
	close(fl.done)
	return e, nil
}

// waitFlight blocks on a flight until the leader completes or ctx expires.
// A waiter that gives up after the leader already completed must return the
// pre-granted pin; one that gives up earlier deregisters so the leader does
// not grant it a pin. Either way no pin and no goroutine leaks.
func (s *Store) waitFlight(ctx context.Context, fl *flight) (*Entry, bool, error) {
	select {
	case <-fl.done:
		if fl.err != nil {
			return nil, false, fl.err
		}
		return fl.e, true, nil
	case <-ctx.Done():
		s.mu.Lock()
		defer s.mu.Unlock()
		select {
		case <-fl.done:
			if fl.err == nil {
				s.unpinLocked(fl.e)
			}
		default:
			fl.waiters--
		}
		return nil, false, fmt.Errorf("session: waiting for concurrent upload: %w", ctx.Err())
	}
}

// Acquire returns the pinned session for fp if cached; the caller must
// Release it. It never builds.
func (s *Store) Acquire(fp string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[fp]
	if !ok {
		s.stats.Misses++
		sessionMisses.Inc()
		return nil, false
	}
	e := el.Value.(*Entry)
	s.pinLocked(e)
	s.lru.MoveToFront(el)
	s.stats.Hits++
	sessionHits.Inc()
	return e, true
}

// Release returns a pin taken by Acquire or GetOrCreate.
func (s *Store) Release(e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unpinLocked(e)
}

func (s *Store) pinLocked(e *Entry) {
	if e.pins == 0 {
		s.pinned++
	}
	e.pins++
	sessionPinned.Set(float64(s.pinned))
}

func (s *Store) unpinLocked(e *Entry) {
	if e.pins == 0 {
		return // double release; tolerated, never underflows
	}
	e.pins--
	if e.pins == 0 {
		s.pinned--
	}
	sessionPinned.Set(float64(s.pinned))
}

// insertLocked admits a prepared session under the byte budget, evicting
// unpinned LRU victims as needed, and returns the entry pinned pins times.
func (s *Store) insertLocked(fp string, p *Prepared, pins int) (*Entry, error) {
	cost := preparedCost(p.M)
	if !s.makeRoomLocked(cost) {
		s.stats.Saturations++
		sessionSaturations.Inc()
		return nil, fmt.Errorf("%w (need %d bytes, %d of %d in use, %d pinned entries)",
			ErrSaturated, cost, s.bytes, s.maxBytes, s.pinned)
	}
	e := &Entry{
		fp:           fp,
		cost:         cost,
		m:            heldCSR(p.M, p.Format),
		shape:        p.M.Shape(),
		feat:         p.Feat,
		sel:          p.Sel,
		genID:        p.GenID,
		format:       p.Format,
		formatMethod: p.Sel.Method,
	}
	e.resident = residentBytes(e.m, e.format)
	e.elem = s.lru.PushFront(e)
	s.entries[fp] = e.elem
	s.bytes += cost
	s.resident += e.resident
	if pins > 0 {
		s.pinned++
		e.pins = pins
	}
	s.updateGaugesLocked()
	return e, nil
}

// makeRoomLocked evicts unpinned sessions, oldest first, until need bytes
// fit in the budget. It reports false when that is impossible — every
// remaining entry is pinned by an in-flight execution, or need alone
// exceeds the budget. The session.evict.race site sits in the window
// between choosing a victim and unlinking it: an injected error stands in
// for the victim being pinned by a racing execution (the pass is abandoned
// and the caller degrades), an injected panic is the crash-mid-eviction
// case the restart tests recover from.
func (s *Store) makeRoomLocked(need int64) bool {
	if need > s.maxBytes {
		return false
	}
	for s.bytes+need > s.maxBytes {
		var victim *Entry
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*Entry); e.pins == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			s.stats.EvictionsRefused++
			sessionEvictionsRefused.Inc()
			return false
		}
		if err := faultinject.Hit("session.evict.race"); err != nil {
			s.stats.EvictionsRefused++
			sessionEvictionsRefused.Inc()
			return false
		}
		s.removeLocked(victim)
		s.stats.Evictions++
		sessionEvictions.Inc()
	}
	return true
}

// removeLocked unlinks an entry and deletes its spill file, keeping the
// disk footprint bounded by the same budget as memory. The unlink is a
// fast, non-blocking syscall, acceptable under the store lock.
func (s *Store) removeLocked(e *Entry) {
	delete(s.entries, e.fp)
	s.lru.Remove(e.elem)
	s.bytes -= e.cost
	s.resident -= e.resident
	if s.spillDir != "" {
		if err := os.Remove(s.spillPath(e.fp)); err != nil && !errors.Is(err, os.ErrNotExist) {
			obsVerbosef("session: removing spill file for %s: %v", shortFP(e.fp), err)
		}
	}
	s.updateGaugesLocked()
}

// Refresh re-predicts the entry when the serving model generation changed,
// returning the (possibly updated) selection. The cached features make this
// a pure tree-inference call — no re-extraction. A method change invalidates
// the converted format lazily via the formatMethod tag.
func (s *Store) Refresh(e *Entry, genID string, predict func(features.Features) core.Selection) core.Selection {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.genID == genID {
		return e.sel
	}
	e.sel = predict(e.feat)
	e.genID = genID
	return e.sel
}

// Exec runs y = A*x iters times against the entry's cached converted
// format, rebuilding it first if absent (rehydrated session) or stale (the
// selection moved to a different method). For iters > 1 the matrix must be
// square — callers validate. The entry must be pinned by the caller for the
// duration of the call; session.exec.panic injects a panic here, exercising
// the handler's per-request recovery with a pin held.
func (s *Store) Exec(ctx context.Context, e *Entry, x []float64, iters, workers int) ([]float64, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if err := faultinject.Hit("session.exec.panic"); err != nil {
		panic(fmt.Sprintf("session: exec: %v", err))
	}
	y, err := kernels.Iterate(ctx, s.ensureFormat(e), e.shape.Rows, x, iters, workers)
	if err != nil {
		return nil, fmt.Errorf("session: exec: %w", err)
	}
	sessionExecs.Inc()
	return y, nil
}

// ensureFormat returns a converted format matching the entry's current
// selection, rebuilding it when the cached one is absent or was built for a
// method the selection has since moved away from. A packed entry's CSR is
// reconstructed from its old pack for the rebuild, and dropped again when
// the new format is a pack too. Called with execMu held, so at most one
// rebuild runs per entry and only it changes e.format and e.m.
func (s *Store) ensureFormat(e *Entry) kernels.Format {
	e.mu.Lock()
	f, m, method := e.format, e.m, e.sel.Method
	current := f != nil && e.formatMethod == method
	e.mu.Unlock()
	if current {
		return f
	}
	if m == nil {
		m = f.(*kernels.SRVPack).CSR()
	}
	f = kernels.Build(m, method, s.rowBlock)
	sessionConverts.Inc()
	e.mu.Lock()
	if e.sel.Method == method {
		e.format, e.formatMethod, e.m = f, method, heldCSR(m, f)
	}
	resident := residentBytes(e.m, e.format)
	e.mu.Unlock()
	s.mu.Lock()
	s.stats.Converts++
	if el, ok := s.entries[e.fp]; ok && el == e.elem {
		s.resident += resident - e.resident
	}
	e.resident = resident
	s.updateGaugesLocked()
	s.mu.Unlock()
	return f
}

// heldCSR returns the CSR an entry keeps beside format f: none when f is an
// SRVPack, which encodes the whole matrix.
func heldCSR(m *matrix.CSR, f kernels.Format) *matrix.CSR {
	if _, packed := f.(*kernels.SRVPack); packed {
		return nil
	}
	return m
}

// residentBytes is what an entry holding m (nil for a packed entry) and f
// keeps on the heap for its matrix. A CSRFormat wraps m itself.
func residentBytes(m *matrix.CSR, f kernels.Format) int64 {
	var n int64
	if m != nil {
		n = csrBytes(m)
	}
	if b, ok := f.(interface{ Bytes() int64 }); ok {
		n += b.Bytes()
	}
	return n
}

// Stats returns a snapshot of the store's state and lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.PinnedEntries = s.pinned
	st.Bytes = s.bytes
	st.ResidentBytes = s.resident
	st.MaxBytes = s.maxBytes
	return st
}

// PinnedCount reports how many sessions are pinned by in-flight work right
// now — the number the serve drain path records at SIGTERM.
func (s *Store) PinnedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinned
}

func (s *Store) updateGaugesLocked() {
	sessionEntries.Set(float64(s.lru.Len()))
	sessionBytes.Set(float64(s.bytes))
	sessionResident.Set(float64(s.resident))
	sessionPinned.Set(float64(s.pinned))
}

// preparedCost estimates the resident bytes of one session: the CSR arrays,
// the feature vector, and a worst-case allowance for the converted format
// (every supported format is O(nnz) values + O(nnz) indices + O(rows)
// scheduling metadata, within a small constant of CSR itself). Charging the
// format allowance up front — whether or not the format is currently
// materialized — keeps the byte-budget invariant exact: lazily rebuilding a
// rehydrated session's format never pushes the store over budget.
//
// The charge stays the same for a packed entry that holds no CSR: a rebuild
// to another method transiently holds a reconstructed CSR beside the new
// format, and the charge covers that peak.
func preparedCost(m *matrix.CSR) int64 {
	nnz := int64(m.NNZ())
	rows := int64(m.Rows)
	format := 16*nnz + 16*rows // converted artifact allowance (padding included)
	const fixed = 4096         // entry struct, feature vector, map/list overhead
	return csrBytes(m) + format + fixed
}

// csrBytes is the size of a CSR's arrays: vals + colidx + rowptr.
func csrBytes(m *matrix.CSR) int64 {
	return 12*int64(m.NNZ()) + 8*int64(m.Rows+1)
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
