package kernels

import "context"

// teamFormat is a format of this package whose products run on a team the
// caller owns, so that a chain of products starts its workers once.
type teamFormat interface {
	// spmvOn computes y = A*x on t, or serially when t is nil.
	spmvOn(t *team, y, x []float64)
}

var (
	_ teamFormat = (*CSRFormat)(nil)
	_ teamFormat = (*SRVPack)(nil)
	_ teamFormat = (*SegCSR)(nil)
)

// spmvParallel is SpMVParallel for the formats of this package: one product
// on a team of its own, or on the calling goroutine alone when workers is 1.
func spmvParallel(f teamFormat, y, x []float64, workers int) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers == 1 {
		f.spmvOn(nil, y, x)
		return
	}
	t := startTeam(workers)
	defer t.close()
	f.spmvOn(t, y, x)
}

// Iterate chains iters products on f: x_1 = A*x, x_{i+1} = A*x_i, and
// returns the last iterate (all zeros when iters is 0). Two buffers of rows
// entries take turns as source and destination, so no iterate is copied and
// the caller's x is never written. ctx is checked before every product; its
// error is returned as is. iters > 1 needs a square matrix.
//
// Every product of the chain runs on one team of workers, started before
// the first product and stopped before Iterate returns; formats from
// outside this package get one SpMVParallel call per product.
func Iterate(ctx context.Context, f Format, rows int, x []float64, iters, workers int) ([]float64, error) {
	y := make([]float64, rows)
	var prev []float64
	if iters > 1 {
		prev = make([]float64, rows)
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	tf, onTeam := f.(teamFormat)
	var t *team
	if onTeam && workers > 1 && iters > 0 {
		t = startTeam(workers)
		defer t.close()
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
		if onTeam {
			tf.spmvOn(t, y, src)
		} else {
			f.SpMVParallel(y, src, workers)
		}
	}
	return y, nil
}
