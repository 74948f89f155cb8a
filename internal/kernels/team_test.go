package kernels

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// parallelUnits runs one loop on a team of its own, the per-call fork-join
// the formats used before a chain shared its team; the original SRVPack
// loop kept as an oracle still runs on it.
func parallelUnits(workers, n int, sched Sched, body func(unit int)) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	workers = min(workers, n)
	if workers <= 1 {
		for u := 0; u < n; u++ {
			body(u)
		}
		return
	}
	t := startTeam(workers)
	defer t.close()
	t.run(n, sched, body)
}

// serialChain is Iterate's chain run by the serial kernel: f.SpMV into
// buffers that take turns, on the calling goroutine only.
func serialChain(f Format, rows int, x []float64, iters int) []float64 {
	y, prev := make([]float64, rows), make([]float64, rows)
	src := x
	for i := 0; i < iters; i++ {
		if i > 0 {
			y, prev = prev, y
			src = prev
		}
		f.SpMV(y, src)
	}
	return y
}

// teamMethods is every method of ModelSpace(Scaled) plus SegCSR under all
// three schedules, with a 256-column window so that it has several
// segments.
func teamMethods() []Method {
	out := methodsUnderTest()
	for _, s := range []Sched{Dyn, St, StCont} {
		out = append(out, Method{Kind: SegCSRKind, Sched: s, C: 256})
	}
	return out
}

// TestTeamChainMatchesSerialBits runs Iterate chains of every method on
// teams of 1 to 4 workers and requires the bits of the serial chain. The
// row counts are not multiples of the 64-row unit, so every schedule ends
// on a partial unit, and the skewed matrix gives LAV its two segments.
func TestTeamChainMatchesSerialBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mats := map[string]*matrix.CSR{
		"rgg":  gen.RGG(rng, 1021, 6),
		"rmat": gen.RMATRows(rng, 1500, 8, gen.LowLoc),
	}
	if p := BuildSRVPack(mats["rmat"], Method{Kind: LAV, C: 4, T: 0.7, Sched: Dyn}); len(p.Segments) != 2 {
		t.Fatalf("LAV on the rmat matrix built %d segments, want 2", len(p.Segments))
	}
	for name, m := range mats {
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = rng.NormFloat64() / 4
		}
		for _, method := range teamMethods() {
			f := Build(m, method, 0)
			for _, iters := range []int{1, 2, 8} {
				want := serialChain(f, m.Rows, x, iters)
				for workers := 1; workers <= 4; workers++ {
					got, err := Iterate(context.Background(), f, m.Rows, x, iters, workers)
					if err != nil {
						t.Fatalf("%s %s iters=%d workers=%d: %v", name, method, iters, workers, err)
					}
					if i := bitsDiffer(want, got); i >= 0 {
						t.Fatalf("%s %s iters=%d workers=%d: y[%d] = %v, serial chain %v",
							name, method, iters, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls, so a chain is cancelled between two of its products.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within a second: a helper that has returned from its loop may still
// be counted until it finishes exiting.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after %s, %d before", runtime.NumGoroutine(), after, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeamLeavesNoGoroutines: the helpers of a team exit before Iterate or
// SpMVParallel returns, whether the chain completes, is cancelled between
// products, or panics in a unit on a helper or on the caller.
func TestTeamLeavesNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := gen.RGG(rng, 1021, 6)
	x := matrix.Ones(m.Cols)
	base := runtime.NumGoroutine()

	for _, method := range []Method{
		{Kind: CSR, Sched: St},
		{Kind: LAV, C: 4, T: 0.7, Sched: Dyn},
		{Kind: SegCSRKind, C: 256, Sched: StCont},
	} {
		f := Build(m, method, 0)
		if _, err := Iterate(context.Background(), f, m.Rows, x, 8, 4); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, fmt.Sprintf("an 8-product %s chain", method))
		f.SpMVParallel(make([]float64, m.Rows), x, 3)
		waitGoroutines(t, base, fmt.Sprintf("a %s SpMVParallel", method))
		ctx := &cancelAfter{Context: context.Background(), n: 3}
		if _, err := Iterate(ctx, f, m.Rows, x, 8, 4); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s chain cancelled after 3 products: err = %v, want context.Canceled", method, err)
		}
		waitGoroutines(t, base, fmt.Sprintf("a %s chain cancelled mid-chain", method))
	}

	// A column index past x faults inside the row loop of unit 1: under St
	// at 2 workers that unit is the helper's, at 1 worker the caller's.
	bad := m.Clone()
	bad.ColIdx[bad.RowPtr[100]] = int32(bad.Cols + 7)
	f := BuildCSRFormat(bad, St, 64)
	for _, workers := range []int{2, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: a unit indexing past x did not panic on the caller", workers)
				}
			}()
			_, _ = Iterate(context.Background(), f, bad.Rows, x, 8, workers) //lint:ignore errdrop the call panics before it returns
		}()
		waitGoroutines(t, base, fmt.Sprintf("a chain that panicked at %d workers", workers))
	}
}
