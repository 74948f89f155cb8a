package kernels

import "context"

// Iterate chains iters products on f: x_1 = A*x, x_{i+1} = A*x_i, and
// returns the last iterate (all zeros when iters is 0). Two buffers of rows
// entries take turns as source and destination, so no iterate is copied and
// the caller's x is never written. ctx is checked before every product; its
// error is returned as is. iters > 1 needs a square matrix.
func Iterate(ctx context.Context, f Format, rows int, x []float64, iters, workers int) ([]float64, error) {
	y := make([]float64, rows)
	var prev []float64
	if iters > 1 {
		prev = make([]float64, rows)
	}
	src := x
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i > 0 {
			y, prev = prev, y
			src = prev
		}
		f.SpMVParallel(y, src, workers)
	}
	return y, nil
}
