package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when callers pass workers <= 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// spinPolls bounds how many times an idle team member polls for its next
// event, yielding the processor between polls, before it parks: a helper
// waiting for the next parallel loop, or worker 0 waiting for the helpers
// to finish one. The gap between two products of a chain is a buffer swap
// and, for column-permuted packs, a gather of x, so a spinning helper
// usually sees the next loop without sleeping; a parked one costs a wake.
const spinPolls = 1024

// team is the set of workers that runs the parallel loops of one SpMV
// chain, in the manner of an OpenMP thread team: the calling goroutine is
// worker 0 and runs its share of every loop itself, and size-1 helper
// goroutines live from startTeam to close. Between loops the helpers spin
// briefly on the loop generation and then park.
//
// Only worker 0 calls run and close; a team serves one chain at a time.
type team struct {
	size int

	// The current loop, written by worker 0 before it bumps gen and read by
	// the helpers after they see the bump.
	n     int          // units
	sched Sched        // unit assignment
	body  func(int)    // runs one unit
	next  atomic.Int64 // Dyn: the next unclaimed unit

	gen     atomic.Uint32       // bumped once per loop, and once by close
	stop    atomic.Bool         // set by close before its bump
	pending atomic.Int64        // helpers yet to finish the current loop
	fault   atomic.Pointer[any] // the first panic a helper recovered

	// Parking. sleepers counts helpers about to park or parked on work;
	// waiting is set while worker 0 is about to park or parked on idle.
	// Each side stores its flag before it rechecks the condition, and the
	// other side changes the condition before it loads the flag, so at
	// least one of them sees the other: no wake is lost.
	mu       sync.Mutex
	work     sync.Cond // helpers: gen moved
	idle     sync.Cond // worker 0: pending reached 0
	sleepers atomic.Int32
	waiting  atomic.Bool
	exited   sync.WaitGroup
}

// startTeam starts the size-1 helpers of a team of size workers. The
// caller must close it, in a defer, so that a panic or an early return
// leaves no helper behind.
func startTeam(size int) *team {
	t := &team{size: size}
	t.work.L = &t.mu
	t.idle.L = &t.mu
	t.exited.Add(size - 1)
	for w := 1; w < size; w++ {
		go t.helper(w)
	}
	return t
}

// close stops the helpers and waits for them to exit. A helper inside a
// loop finishes its share first.
func (t *team) close() {
	t.stop.Store(true)
	t.post()
	t.exited.Wait()
}

// run executes body(unit) for every unit in [0, n) on the team under the
// scheduling policy and returns when all of them are done:
//
//   - Dyn: workers claim units one at a time from a shared atomic counter,
//     the self-scheduling loop OpenMP's schedule(dynamic) uses.
//   - St: unit u is executed by worker u % workers (round-robin).
//   - StCont: worker w executes the contiguous span [w*n/workers, (w+1)*n/workers).
//
// workers is min(size, n); with one, worker 0 runs the loop alone and the
// helpers are not woken. body must be safe to call concurrently for
// distinct units. A panic in any worker's body is raised on worker 0 once
// the loop has drained.
func (t *team) run(n int, sched Sched, body func(unit int)) {
	if min(t.size, n) <= 1 {
		for u := 0; u < n; u++ {
			body(u)
		}
		return
	}
	t.n, t.sched, t.body = n, sched, body
	t.next.Store(0)
	t.pending.Store(int64(t.size - 1))
	t.post()
	t.share(0)
	t.join()
	if p := t.fault.Swap(nil); p != nil {
		panic(*p)
	}
}

// post publishes the next loop, or the stop, to the helpers.
func (t *team) post() {
	t.gen.Add(1)
	if t.sleepers.Load() > 0 {
		t.mu.Lock()
		t.work.Broadcast()
		t.mu.Unlock()
	}
}

// join waits until every helper has finished the current loop.
func (t *team) join() {
	for i := 0; i < spinPolls; i++ {
		if t.pending.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	t.waiting.Store(true)
	t.mu.Lock()
	for t.pending.Load() != 0 {
		t.idle.Wait()
	}
	t.mu.Unlock()
	t.waiting.Store(false)
}

// helper is the loop of worker w: wait for a loop, run its share, report.
func (t *team) helper(w int) {
	defer t.exited.Done()
	var seen uint32
	for {
		seen = t.await(seen)
		if t.stop.Load() {
			return
		}
		t.guardedShare(w)
		if t.pending.Add(-1) == 0 && t.waiting.Load() {
			t.mu.Lock()
			t.idle.Signal()
			t.mu.Unlock()
		}
	}
}

// await returns the loop generation once it differs from seen.
func (t *team) await(seen uint32) uint32 {
	for i := 0; i < spinPolls; i++ {
		if g := t.gen.Load(); g != seen {
			return g
		}
		runtime.Gosched()
	}
	t.sleepers.Add(1)
	t.mu.Lock()
	for t.gen.Load() == seen {
		t.work.Wait()
	}
	t.mu.Unlock()
	t.sleepers.Add(-1)
	return t.gen.Load()
}

// guardedShare runs worker w's share and hands a panic to worker 0, which
// would otherwise take the process down from a goroutine no caller can
// recover on.
func (t *team) guardedShare(w int) {
	defer func() {
		if r := recover(); r != nil {
			t.fault.CompareAndSwap(nil, &r)
		}
	}()
	t.share(w)
}

// share runs worker w's units of the current loop.
func (t *team) share(w int) {
	n, body := t.n, t.body
	eff := min(t.size, n)
	if w >= eff {
		return
	}
	switch t.sched {
	case Dyn:
		for {
			u := int(t.next.Add(1)) - 1
			if u >= n {
				return
			}
			body(u)
		}
	case St:
		for u := w; u < n; u += eff {
			body(u)
		}
	case StCont:
		for u := w * n / eff; u < (w+1)*n/eff; u++ {
			body(u)
		}
	}
}
