package kernels

import (
	"fmt"
	"time"

	"wise/internal/matrix"
)

// SegCSR is a cache-blocked CSR format in the style of Cagra (Zhang et al.,
// "Making caches work for graph analytics"), which the paper's Section 7
// names as a natural extension target for WISE: the columns are partitioned
// into LLC-sized ranges and the matrix is processed one column segment at a
// time, so the input-vector slice of each segment stays cache-resident. No
// row reordering and no vectorized packing — this is the scalar
// locality-only counterpart to LAV's segmentation.
//
// SegCSR exists to exercise WISE's extensibility claim: it is *not* part of
// the paper's 29-model space; ExtensionMethods() exposes it and
// core.WISE.Extend trains its model without touching the existing ones.
type SegCSR struct {
	Rows, Cols int
	Sched      Sched
	RowBlock   int
	// Segs hold, per column segment, a full CSR substructure over the same
	// row set (rows with no nonzeros in a segment have empty spans).
	Segs []SegCSRSegment
}

// SegCSRSegment is one column range of SegCSR with its own CSR arrays.
type SegCSRSegment struct {
	ColLo, ColHi int32
	RowPtr       []int64
	ColIdx       []int32
	Vals         []float64
}

// BuildSegCSR partitions the matrix into column segments of at most
// segCols columns each and builds one CSR substructure per segment.
// segCols <= 0 selects a single segment (degenerating to plain CSR).
func BuildSegCSR(m *matrix.CSR, segCols int, sched Sched, rowBlock int) *SegCSR {
	if segCols <= 0 || segCols > m.Cols {
		segCols = m.Cols
	}
	if segCols < 1 {
		segCols = 1
	}
	if rowBlock <= 0 {
		rowBlock = defaultRowBlock
	}
	out := &SegCSR{Rows: m.Rows, Cols: m.Cols, Sched: sched, RowBlock: rowBlock}
	nSegs := (m.Cols + segCols - 1) / segCols
	if nSegs < 1 {
		nSegs = 1
	}
	out.Segs = make([]SegCSRSegment, 0, nSegs)
	for lo := 0; lo < m.Cols || lo == 0; lo += segCols {
		hi := lo + segCols
		if hi > m.Cols {
			hi = m.Cols
		}
		seg := SegCSRSegment{
			ColLo:  int32(lo),
			ColHi:  int32(hi),
			RowPtr: make([]int64, m.Rows+1),
		}
		// First pass counts the segment's nonzeros per row so the element
		// arrays are allocated exactly once at their final size.
		for i := 0; i < m.Rows; i++ {
			cols, _ := m.Row(i)
			n := seg.RowPtr[i]
			for _, c := range cols {
				if int(c) >= lo && int(c) < hi {
					n++
				}
			}
			seg.RowPtr[i+1] = n
		}
		nnz := seg.RowPtr[m.Rows]
		seg.ColIdx = make([]int32, 0, nnz)
		seg.Vals = make([]float64, 0, nnz)
		for i := 0; i < m.Rows; i++ {
			cols, vals := m.Row(i)
			for k, c := range cols {
				if int(c) >= lo && int(c) < hi {
					seg.ColIdx = append(seg.ColIdx, c)
					seg.Vals = append(seg.Vals, vals[k])
				}
			}
		}
		out.Segs = append(out.Segs, seg)
		if m.Cols == 0 {
			break
		}
	}
	return out
}

// Bytes is the heap footprint of the segments' CSR arrays.
func (f *SegCSR) Bytes() int64 {
	var n int64
	for _, seg := range f.Segs {
		n += 8*int64(len(seg.RowPtr)) + 4*int64(len(seg.ColIdx)) + 8*int64(len(seg.Vals))
	}
	return n
}

// SpMV computes y = A*x sequentially.
func (f *SegCSR) SpMV(y, x []float64) { f.SpMVParallel(y, x, 1) }

// SpMVParallel computes y = A*x, processing column segments one after
// another (the cache-blocking discipline) and parallelizing over row blocks
// within each segment.
func (f *SegCSR) SpMVParallel(y, x []float64, workers int) { spmvParallel(f, y, x, workers) }

func (f *SegCSR) spmvOn(t *team, y, x []float64) {
	defer observeSpMV(time.Now())
	if len(x) != f.Cols || len(y) != f.Rows {
		panic(fmt.Sprintf("kernels: SpMV dims y[%d]=A[%dx%d]*x[%d]", len(y), f.Rows, f.Cols, len(x)))
	}
	for i := range y {
		y[i] = 0
	}
	if t == nil {
		// Closure-free serial path: a closure handed to the team is stored
		// where its helpers read it, so it is heap-allocated, which would
		// break the steady-state zero-allocation guarantee.
		for si := range f.Segs {
			f.Segs[si].addRows(y, x, 0, f.Rows)
		}
		return
	}
	blocks := (f.Rows + f.RowBlock - 1) / f.RowBlock
	// One closure serves every segment: it reads the segment through a
	// variable reassigned per iteration (run returns only when every worker
	// is done, so the reassignment never races with them).
	var seg *SegCSRSegment
	body := func(b int) {
		lo := b * f.RowBlock
		hi := lo + f.RowBlock
		if hi > f.Rows {
			hi = f.Rows
		}
		seg.addRows(y, x, lo, hi)
	}
	for si := range f.Segs {
		seg = &f.Segs[si]
		t.run(blocks, f.Sched, body)
	}
}

// addRows accumulates y[lo:hi] += A_seg * x for one column segment, with
// the row's column and value spans resliced into locals as in rowSpan.
func (s *SegCSRSegment) addRows(y, x []float64, lo, hi int) {
	// ColIdx values lie in [ColLo, ColHi) by construction, but they originate
	// in parsed matrix files; assert the segment's column range fits x before
	// the inner loop rather than faulting mid-kernel.
	if int(s.ColHi) > len(x) {
		panic(fmt.Sprintf("kernels: segment columns [%d,%d) out of range for x[%d]", s.ColLo, s.ColHi, len(x)))
	}
	rowPtr, colIdx, vals := s.RowPtr, s.ColIdx, s.Vals
	for i := lo; i < hi; i++ {
		rp, rq := rowPtr[i], rowPtr[i+1]
		cols, vs := colIdx[rp:rq], vals[rp:rq]
		var acc float64
		for k := 0; k < len(vs); k++ {
			acc += vs[k] * x[cols[k]]
		}
		y[i] += acc
	}
}

// SegCSRKind is the extension method family id. It deliberately lives
// outside the paper's Kind range (CSR..LAV) so the 29-model space is
// untouched; String(), Validate() and Build() all understand it.
const SegCSRKind Kind = 100

// ExtensionMethods returns the extra {method, parameter} combinations
// available beyond the paper's grid: SegCSR with an LLC-sized column window.
func ExtensionMethods(llcDoubles int) []Method {
	window := llcDoubles / 2
	if window < 1 {
		window = 1
	}
	return []Method{
		{Kind: SegCSRKind, Sched: Dyn, C: window},
		{Kind: SegCSRKind, Sched: StCont, C: window},
	}
}
