package kernels

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// copyChain is the multiply-chain loop Iterate replaced: one output vector,
// copied into a second buffer after every product but the last.
func copyChain(f Format, m *matrix.CSR, x []float64, iters, workers int) []float64 {
	y := make([]float64, m.Rows)
	src := x
	var tmp []float64
	for i := 0; i < iters; i++ {
		f.SpMVParallel(y, src, workers)
		if i+1 < iters {
			if tmp == nil {
				tmp = make([]float64, m.Cols)
			}
			copy(tmp, y)
			src = tmp
		}
	}
	return y
}

// TestIterateMatchesCopyChain pins Iterate to the copying loop bit for bit
// and checks that the caller's x comes back untouched.
func TestIterateMatchesCopyChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := gen.RGG(rng, 300, 6)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = rng.NormFloat64() / 4
	}
	orig := append([]float64(nil), x...)
	for _, method := range []Method{
		{Kind: CSR, Sched: Dyn},
		{Kind: SellCR, C: 4, Sched: Dyn},
		{Kind: LAV, C: 8, T: 0.7, Sched: Dyn},
	} {
		f := Build(m, method, 0)
		for _, iters := range []int{1, 2, 8} {
			want := copyChain(f, m, x, iters, 2)
			got, err := Iterate(context.Background(), f, m.Rows, x, iters, 2)
			if err != nil {
				t.Fatalf("%s iters=%d: %v", method, iters, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s iters=%d: y[%d] = %v, copying loop %v", method, iters, i, got[i], want[i])
				}
			}
			if i := bitsDiffer(orig, x); i >= 0 {
				t.Fatalf("%s iters=%d wrote x[%d]", method, iters, i)
			}
		}
	}
}

// TestIterateStopsOnCancel: a cancelled context stops the chain before
// the next product and surfaces the context's error.
func TestIterateStopsOnCancel(t *testing.T) {
	m := matrix.Fig1Example()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	y, err := Iterate(ctx, Build(m, Method{Kind: CSR, Sched: Dyn}, 0), m.Rows, matrix.Ones(m.Cols), 3, 1)
	if !errors.Is(err, context.Canceled) || y != nil {
		t.Fatalf("Iterate on a cancelled context = %v, %v; want nil, context.Canceled", y, err)
	}
}
