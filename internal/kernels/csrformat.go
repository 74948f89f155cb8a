package kernels

import (
	"fmt"
	"time"

	"wise/internal/matrix"
)

// CSRFormat executes SpMV directly on CSR storage with one of the three
// row-scheduling policies of Section 2.1. Work units are blocks of RowBlock
// consecutive rows (the paper's K).
type CSRFormat struct {
	M        *matrix.CSR
	Sched    Sched
	RowBlock int

	// inRange is M when the build proved M's row pointers and column
	// indices in range (csrInRange), the proof the vector row kernel reads
	// on without bounds checks; nil, or a matrix M no longer is, sends the
	// rows to the Go loop. M must not be modified after the build.
	inRange *matrix.CSR
}

// BuildCSRFormat wraps a CSR matrix for scheduled execution. rowBlock <= 0
// selects a default of 64 rows per unit. On a host with the vector kernels
// it checks the matrix's indices once, in O(rows + nnz).
func BuildCSRFormat(m *matrix.CSR, sched Sched, rowBlock int) *CSRFormat {
	if rowBlock <= 0 {
		rowBlock = defaultRowBlock
	}
	f := &CSRFormat{M: m, Sched: sched, RowBlock: rowBlock}
	if useSIMD && csrInRange(m) {
		f.inRange = m
	}
	return f
}

// SpMV computes y = A*x sequentially.
func (f *CSRFormat) SpMV(y, x []float64) { f.SpMVParallel(y, x, 1) }

// SpMVParallel computes y = A*x with the format's scheduling policy.
//
// For Dyn and St, units are RowBlock-row blocks claimed dynamically or
// round-robin. For StCont, the row range is divided into one contiguous span
// per worker, regardless of RowBlock (the paper's "divides the rows by the
// number of threads").
func (f *CSRFormat) SpMVParallel(y, x []float64, workers int) { spmvParallel(f, y, x, workers) }

func (f *CSRFormat) spmvOn(t *team, y, x []float64) {
	defer observeSpMV(time.Now())
	m := f.M
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("kernels: SpMV dims y[%d]=A[%dx%d]*x[%d]", len(y), m.Rows, m.Cols, len(x)))
	}
	if t == nil {
		// Closure-free serial path: a closure handed to the team is stored
		// where its helpers read it, so it is heap-allocated, which would
		// break the steady-state zero-allocation guarantee.
		f.rowSpan(y, x, 0, m.Rows)
		return
	}
	if f.Sched == StCont {
		workers := t.size
		t.run(workers, StCont, func(w int) {
			f.rowSpan(y, x, w*m.Rows/workers, (w+1)*m.Rows/workers)
		})
		return
	}
	blocks := (m.Rows + f.RowBlock - 1) / f.RowBlock
	t.run(blocks, f.Sched, func(b int) {
		lo := b * f.RowBlock
		hi := lo + f.RowBlock
		if hi > m.Rows {
			hi = m.Rows
		}
		f.rowSpan(y, x, lo, hi)
	})
}

// rowSpan computes y[i] = A[i,:]*x for rows [lo, hi). The row's column and
// value spans are resliced into locals, so the inner loop reads no field of
// the matrix; each row is still summed from its first nonzero to its last.
// With useSIMD and the build's proof, the vector kernel sums the rows in
// the same order.
func (f *CSRFormat) rowSpan(y, x []float64, lo, hi int) {
	m := f.M
	// ColIdx values come from parsed matrix files; re-assert the x bound
	// cheaply here rather than faulting mid-kernel on corrupt input.
	if len(x) < m.Cols {
		panic(fmt.Sprintf("kernels: x[%d] shorter than matrix columns %d", len(x), m.Cols))
	}
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	if useSIMD && f.inRange == m {
		rowSpanAVX2(y[lo:hi], x, rowPtr[lo:hi+1], colIdx, vals)
		return
	}
	for i := lo; i < hi; i++ {
		rp, rq := rowPtr[i], rowPtr[i+1]
		cols, vs := colIdx[rp:rq], vals[rp:rq]
		var acc float64
		for k := 0; k < len(vs); k++ {
			acc += vs[k] * x[cols[k]]
		}
		y[i] = acc
	}
}
