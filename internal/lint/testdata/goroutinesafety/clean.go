// Fixture: code the goroutinesafety analyzer must accept — the worker-pool
// patterns the repo's parallel paths use.
package lintfixture

import (
	"sync"
	"sync/atomic"
)

// goodPartitioned writes disjoint slots indexed by a goroutine parameter.
func goodPartitioned(out []int) {
	var wg sync.WaitGroup
	workers := 4
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			out[w] = w * w
		}(w)
	}
	wg.Wait()
}

// goodDynamic is the self-scheduling loop: the claimed unit index is
// goroutine-local, so slot writes are disjoint.
func goodDynamic(out []int) {
	var next int64
	var wg sync.WaitGroup
	workers := 4
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				u := int(atomic.AddInt64(&next, 1)) - 1
				if u >= len(out) {
					return
				}
				out[u] = u
			}
		}()
	}
	wg.Wait()
}

// goodLoopCapture closes over the loop variable, which go 1.22 makes
// per-iteration: each goroutine sees its own i.
func goodLoopCapture(xs []int) {
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for i := range xs {
		go func() {
			defer wg.Done()
			use(i)
		}()
	}
	wg.Wait()
}

func suppressedSharedWrite(out []int) {
	var wg sync.WaitGroup
	wg.Add(1)
	k := 0
	go func() {
		defer wg.Done()
		//lint:ignore goroutinesafety single goroutine, no concurrent writer
		out[k] = 1
	}()
	wg.Wait()
}
