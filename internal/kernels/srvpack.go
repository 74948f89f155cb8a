package kernels

import (
	"fmt"
	"time"

	"wise/internal/matrix"
)

// SRVPack is the paper's unified Segmented Reordered Vector Packing format
// (Appendix A). One or two column segments hold the nonzeros; within a
// segment, rows are placed in chunks of C lanes following RowOrder, each
// chunk padded to the width of its longest row. A single SpMV kernel
// executes every vectorized method of Table 1 from this representation.
type SRVPack struct {
	Rows, Cols int
	C          int
	Method     Method

	// ColPerm is the CFS column permutation (perm[rank] = original column)
	// for LAV-1Seg and LAV; nil for the other methods. When set, ColIdx
	// values index the gathered vector x~[rank] = x[ColPerm[rank]].
	ColPerm matrix.Permutation

	Segments []Segment

	nnz      int64     // real nonzeros stored (excludes padding), set at build
	rowBlock int       // parallel unit in rows, as CSRFormat.RowBlock; set at build
	xbuf     []float64 // gathered-x scratch; makes SpMV non-reentrant per pack
}

// Segment is one column range of the SRVPack format.
type Segment struct {
	// RowOrder maps packed position to original row id (the paper's
	// row_order array).
	RowOrder []int32
	// ChunkOff[k] is the position (in chunk-width units) of chunk k's first
	// column; chunk k spans positions [ChunkOff[k], ChunkOff[k+1]).
	ChunkOff []int64
	// Vals and ColIdx store the packed elements position-major: the element
	// of chunk k, lane l at local position p lives at index
	// (ChunkOff[k]+p)*C + l. Padded slots hold Val 0 and ColIdx 0.
	Vals   []float64
	ColIdx []int32
	// LaneLen[pos] is the number of real elements in the lane at packed
	// position pos; the slots past it up to the chunk width are padding.
	// Padding cannot be told from its contents: an explicit zero at column
	// (or CFS rank) 0 is stored as Val 0, ColIdx 0 too.
	LaneLen []int32
	// ColLo, ColHi delimit the segment's column-rank range [ColLo, ColHi).
	ColLo, ColHi int32

	// maxIdx is the largest ColIdx value read as unsigned, so a negative
	// index counts as too large; recorded at build time so the kernel can
	// bounds-check the gathered vector in O(1) per span.
	maxIdx uint32
}

// Chunks returns the number of chunks in the segment.
func (s *Segment) Chunks() int { return len(s.ChunkOff) - 1 }

// CSR reconstructs the matrix the pack was built from, exactly: the same
// RowPtr and ColIdx, and the same bits in Vals. Each lane is read back for
// LaneLen elements, segment by segment in ascending column range, so every
// row comes out in column order; a pack built in CFS rank space is then
// renamed back to the original columns by the inverse of ColPerm, which
// PermuteCols emits sorted per row. It costs O(nnz) time and a fresh CSR's
// memory (three for a ColPerm pack, while it permutes).
func (p *SRVPack) CSR() *matrix.CSR {
	m := &matrix.CSR{Rows: p.Rows, Cols: p.Cols, RowPtr: make([]int64, p.Rows+1)}
	for si := range p.Segments {
		seg := &p.Segments[si]
		for pos, n := range seg.LaneLen {
			m.RowPtr[seg.RowOrder[pos]+1] += int64(n)
		}
	}
	for i := 0; i < p.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	m.ColIdx = make([]int32, m.RowPtr[p.Rows])
	m.Vals = make([]float64, m.RowPtr[p.Rows])
	next := append([]int64(nil), m.RowPtr[:p.Rows]...)
	c := int64(p.C)
	for si := range p.Segments {
		seg := &p.Segments[si]
		for pos, n := range seg.LaneLen {
			row := seg.RowOrder[pos]
			idx := seg.ChunkOff[int64(pos)/c]*c + int64(pos)%c
			for e := next[row]; e < next[row]+int64(n); e++ {
				m.ColIdx[e], m.Vals[e] = seg.ColIdx[idx], seg.Vals[idx]
				idx += c
			}
			next[row] += int64(n)
		}
	}
	if p.ColPerm != nil {
		m = m.PermuteCols(p.ColPerm.Inverse())
	}
	return m
}

// Bytes is the heap footprint of the pack's arrays: every segment's
// packed elements and metadata, the column permutation, and for a ColPerm
// pack the gathered-x buffer its first SpMV allocates.
func (p *SRVPack) Bytes() int64 {
	n := p.Stats().MatrixBytes + 4*int64(len(p.ColPerm))
	for si := range p.Segments {
		n += 4 * int64(len(p.Segments[si].LaneLen))
	}
	if p.ColPerm != nil {
		n += 8 * int64(p.Cols)
	}
	return n
}

// BuildSRVPack converts a CSR matrix into SRVPack form for any vectorized
// method (every Kind except CSR), scheduling the default of 64 rows per
// parallel unit. It panics on invalid methods; structural problems in the
// input surface via matrix validation in the caller.
func BuildSRVPack(m *matrix.CSR, method Method) *SRVPack {
	return buildSRVPack(m, method, defaultRowBlock)
}

// The builder's sorts, all counting sorts over bounded integer keys. The
// pack-equality test swaps in the comparison sorts they replaced and checks
// that every pack comes out the same.
var (
	colRanks    = CFS
	permuteCols = (*matrix.CSR).PermuteCols
	windowSort  = WindowSortRows
)

func buildSRVPack(m *matrix.CSR, method Method, rowBlock int) *SRVPack {
	if err := method.Validate(); err != nil {
		panic(err)
	}
	if method.Kind == CSR {
		panic("kernels: BuildSRVPack does not handle CSR; use BuildCSRFormat")
	}
	p := &SRVPack{Rows: m.Rows, Cols: m.Cols, C: method.C, Method: method, rowBlock: rowBlock}

	work := m
	if method.Kind == LAV1Seg || method.Kind == LAV {
		p.ColPerm = colRanks(m)
		work = permuteCols(m, p.ColPerm) // columns now in rank space
	}

	// Determine segment column ranges in rank space.
	type colRange struct{ lo, hi int32 }
	ranges := []colRange{{0, int32(m.Cols)}}
	if method.Kind == LAV {
		counts := work.ColCounts()
		s := segmentSplit(counts, method.T)
		if s < m.Cols {
			ranges = []colRange{{0, int32(s)}, {int32(s), int32(m.Cols)}}
		}
	}

	p.Segments = make([]Segment, 0, len(ranges))
	for _, r := range ranges {
		p.Segments = append(p.Segments, buildSegment(work, method, r.lo, r.hi))
	}
	p.nnz = int64(m.NNZ())
	return p
}

// searchGE returns the first index k in the ascending slice cols with
// cols[k] >= target. Plain binary search: a sort.Search call here would mint
// a closure per row of the build loop.
func searchGE(cols []int32, target int32) int {
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cols[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// buildSegment packs the nonzeros of work whose column lies in [cLo, cHi)
// into one Segment, applying the method's row ordering.
func buildSegment(work *matrix.CSR, method Method, cLo, cHi int32) Segment {
	rows := work.Rows
	c := method.C

	// Per-row span of columns within [cLo, cHi): rows are column-sorted, so
	// the segment's entries form a contiguous range found by binary search.
	spanLo := make([]int64, rows)
	counts := make([]int64, rows)
	for i := 0; i < rows; i++ {
		cols, _ := work.Row(i)
		lo := searchGE(cols, cLo)
		hi := searchGE(cols, cHi)
		spanLo[i] = work.RowPtr[i] + int64(lo)
		counts[i] = int64(hi - lo)
	}

	// Row ordering per method.
	var order matrix.Permutation
	switch method.Kind {
	case SELLPACK:
		order = matrix.Identity(rows)
	case SellCSigma:
		order = windowSort(matrix.Identity(rows), counts, method.Sigma)
	case SellCR, LAV1Seg, LAV:
		order = windowSort(matrix.Identity(rows), counts, rows)
	}

	// Chunk widths and offsets.
	nChunks := (rows + c - 1) / c
	off := make([]int64, nChunks+1)
	for k := 0; k < nChunks; k++ {
		var width int64
		for l := 0; l < c; l++ {
			pos := k*c + l
			if pos >= rows {
				break
			}
			if w := counts[order[pos]]; w > width {
				width = w
			}
		}
		off[k+1] = off[k] + width
	}
	totalWidth := off[nChunks]

	seg := Segment{
		RowOrder: order, // every case above built order afresh
		ChunkOff: off,
		Vals:     make([]float64, totalWidth*int64(c)),
		ColIdx:   make([]int32, totalWidth*int64(c)),
		LaneLen:  make([]int32, rows),
		ColLo:    cLo,
		ColHi:    cHi,
	}
	for k := 0; k < nChunks; k++ {
		base := k * c
		for l := 0; l < c; l++ {
			pos := base + l
			if pos >= rows {
				break
			}
			row := int(order[pos])
			src := spanLo[row]
			seg.LaneLen[pos] = int32(counts[row])
			for e := int64(0); e < counts[row]; e++ {
				idx := (off[k]+e)*int64(c) + int64(l)
				seg.Vals[idx] = work.Vals[src+e]
				seg.ColIdx[idx] = work.ColIdx[src+e]
			}
			// Remaining positions up to the chunk width stay zero-padded
			// (Val 0, ColIdx 0), a safe read for any Cols >= 1.
		}
	}
	for _, ci := range seg.ColIdx {
		seg.maxIdx = max(seg.maxIdx, uint32(ci))
	}
	return seg
}

// SpMV computes y = A*x sequentially. y is overwritten.
func (p *SRVPack) SpMV(y, x []float64) { p.SpMVParallel(y, x, 1) }

// SpMVParallel computes y = A*x with the given number of workers under the
// method's scheduling policy. Work units are blocks of ceil(rowBlock/C)
// consecutive chunks, so a unit covers about as many rows as a CSR unit;
// segments execute one after another (the LAV discipline: each segment's
// slice of x is made LLC-resident, then consumed). A pack must not be used
// from concurrent SpMV calls: the gathered-x scratch buffer is per-pack
// state.
//
// A single-segment pack writes every row exactly once, so y is assigned;
// LAV's two segments zero y and accumulate. Either way a row's sum is formed
// in the same order from a +0 start, so both give the same bits.
func (p *SRVPack) SpMVParallel(y, x []float64, workers int) { spmvParallel(p, y, x, workers) }

func (p *SRVPack) spmvOn(t *team, y, x []float64) {
	defer observeSpMV(time.Now())
	if len(x) != p.Cols || len(y) != p.Rows {
		panic(fmt.Sprintf("kernels: SpMV dims y[%d]=A[%dx%d]*x[%d]", len(y), p.Rows, p.Cols, len(x)))
	}
	xs := x
	if p.ColPerm != nil {
		p.xbuf = matrix.GatherVec(p.xbuf, x, p.ColPerm)
		xs = p.xbuf
	}
	add := len(p.Segments) > 1
	if add {
		for i := range y {
			y[i] = 0
		}
	}
	if t == nil {
		// Closure-free serial path: a closure handed to the team is stored
		// where its helpers read it, so it is heap-allocated, which would
		// break the steady-state zero-allocation guarantee.
		for si := range p.Segments {
			p.Segments[si].spanSpMV(p.C, 0, p.Segments[si].Chunks(), y, xs, add)
		}
		return
	}
	block := (p.rowBlock + p.C - 1) / p.C
	// One closure serves every segment: it reads the segment through a
	// variable reassigned per iteration (run returns only when every worker
	// is done, so the reassignment never races with them).
	var seg *Segment
	body := func(b int) {
		lo := b * block
		hi := lo + block
		if n := seg.Chunks(); hi > n {
			hi = n
		}
		seg.spanSpMV(p.C, lo, hi, y, xs, add)
	}
	for si := range p.Segments {
		seg = &p.Segments[si]
		t.run((seg.Chunks()+block-1)/block, p.Method.Sched, body)
	}
}

// spanSpMV computes chunks [k0, k1) of the segment into y: assigned, or
// added when add is set. C=4 and C=8, the chunk sizes of the 8-wide
// machines, run unrolled; any other C takes the generic loop.
func (s *Segment) spanSpMV(c, k0, k1 int, y, xs []float64, add bool) {
	switch c {
	case 4:
		s.span4(k0, k1, y, xs, add)
	case 8:
		s.span8(k0, k1, y, xs, add)
	default:
		s.spanC(c, k0, k1, y, xs, add)
	}
}

// checkBounds panics unless every packed column index addresses xs.
// ColIdx values come from parsed matrix files via the build; the recorded
// maximum makes the access range checkable before the inner loop instead
// of faulting mid-kernel on corrupt input, and is the proof the vector
// kernels gather on.
func (s *Segment) checkBounds(xs []float64) {
	if len(s.ColIdx) > 0 && int(s.maxIdx) >= len(xs) {
		panic(fmt.Sprintf("kernels: packed column index %d out of range for x[%d]", s.maxIdx, len(xs)))
	}
}

// store writes one lane's sum to y[row].
func store(y []float64, row int32, acc float64, add bool) {
	if add {
		y[row] += acc
	} else {
		y[row] = acc
	}
}

// span4 is spanSpMV for C=4: position-outer, lane-inner, one accumulator
// per lane, over the chunk's resliced Vals/ColIdx. With useSIMD the full
// chunks run on vector lanes, and the Go loop takes what the vector kernel
// left: a last partial chunk, or a chunk whose offsets or rows it refused.
func (s *Segment) span4(k0, k1 int, y, xs []float64, add bool) {
	s.checkBounds(xs)
	rows := len(s.RowOrder)
	if full := min(k1, rows/4); useSIMD && k0 < full {
		k0 += span4AVX2(y, xs, s.Vals, s.ColIdx, s.ChunkOff[k0:full+1], s.RowOrder[k0*4:full*4], add)
	}
	for k := k0; k < k1; k++ {
		lo, hi := int(s.ChunkOff[k])*4, int(s.ChunkOff[k+1])*4
		vals := s.Vals[lo:hi]
		cols := s.ColIdx[lo:hi]
		var a0, a1, a2, a3 float64
		for len(vals) >= 4 && len(cols) >= 4 {
			a0 += vals[0] * xs[cols[0]]
			a1 += vals[1] * xs[cols[1]]
			a2 += vals[2] * xs[cols[2]]
			a3 += vals[3] * xs[cols[3]]
			vals, cols = vals[4:], cols[4:]
		}
		base := k * 4
		if base+4 <= rows {
			order := s.RowOrder[base : base+4]
			store(y, order[0], a0, add)
			store(y, order[1], a1, add)
			store(y, order[2], a2, add)
			store(y, order[3], a3, add)
			continue
		}
		acc := [4]float64{a0, a1, a2, a3}
		for l, row := range s.RowOrder[base:] {
			store(y, row, acc[l], add)
		}
	}
}

// span8 is span4 for C=8.
func (s *Segment) span8(k0, k1 int, y, xs []float64, add bool) {
	s.checkBounds(xs)
	rows := len(s.RowOrder)
	if full := min(k1, rows/8); useSIMD && k0 < full {
		k0 += span8AVX2(y, xs, s.Vals, s.ColIdx, s.ChunkOff[k0:full+1], s.RowOrder[k0*8:full*8], add)
	}
	for k := k0; k < k1; k++ {
		lo, hi := int(s.ChunkOff[k])*8, int(s.ChunkOff[k+1])*8
		vals := s.Vals[lo:hi]
		cols := s.ColIdx[lo:hi]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for len(vals) >= 8 && len(cols) >= 8 {
			a0 += vals[0] * xs[cols[0]]
			a1 += vals[1] * xs[cols[1]]
			a2 += vals[2] * xs[cols[2]]
			a3 += vals[3] * xs[cols[3]]
			a4 += vals[4] * xs[cols[4]]
			a5 += vals[5] * xs[cols[5]]
			a6 += vals[6] * xs[cols[6]]
			a7 += vals[7] * xs[cols[7]]
			vals, cols = vals[8:], cols[8:]
		}
		base := k * 8
		if base+8 <= rows {
			order := s.RowOrder[base : base+8]
			store(y, order[0], a0, add)
			store(y, order[1], a1, add)
			store(y, order[2], a2, add)
			store(y, order[3], a3, add)
			store(y, order[4], a4, add)
			store(y, order[5], a5, add)
			store(y, order[6], a6, add)
			store(y, order[7], a7, add)
			continue
		}
		acc := [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for l, row := range s.RowOrder[base:] {
			store(y, row, acc[l], add)
		}
	}
}

// laneGroup is how many lanes the generic loop accumulates at once. Wider
// chunks are walked one group of lanes after another, so the fixed
// accumulator array serves any C.
const laneGroup = 16

// spanC is spanSpMV for any C.
func (s *Segment) spanC(c, k0, k1 int, y, xs []float64, add bool) {
	s.checkBounds(xs)
	rows := len(s.RowOrder)
	var accBuf [laneGroup]float64
	for k := k0; k < k1; k++ {
		lo, hi := int(s.ChunkOff[k])*c, int(s.ChunkOff[k+1])*c
		vals := s.Vals[lo:hi]
		cols := s.ColIdx[lo:hi]
		base := k * c
		lanes := rows - base
		if lanes > c {
			lanes = c
		}
		for g := 0; g < lanes; g += laneGroup {
			acc := accBuf[:min(laneGroup, lanes-g)]
			clear(acc)
			for i := g; i < len(vals); i += c {
				v := vals[i : i+len(acc)]
				ci := cols[i : i+len(acc)]
				for l := range acc {
					acc[l] += v[l] * xs[ci[l]]
				}
			}
			for l, row := range s.RowOrder[base+g : base+g+len(acc)] {
				store(y, row, acc[l], add)
			}
		}
	}
}

// PackStats summarizes the built format for the cost model and tests.
type PackStats struct {
	NNZ         int64 // real nonzeros stored
	StoredSlots int64 // slots including padding
	Padding     int64 // StoredSlots - NNZ
	Chunks      int
	Segments    int
	MatrixBytes int64 // footprint of Vals+ColIdx+RowOrder+ChunkOff
}

// Stats computes the PackStats of the built format.
func (p *SRVPack) Stats() PackStats {
	st := PackStats{NNZ: p.nnz, Segments: len(p.Segments)}
	for si := range p.Segments {
		seg := &p.Segments[si]
		st.StoredSlots += int64(len(seg.Vals))
		st.Chunks += seg.Chunks()
		st.MatrixBytes += int64(len(seg.Vals))*8 + int64(len(seg.ColIdx))*4 +
			int64(len(seg.RowOrder))*4 + int64(len(seg.ChunkOff))*8
	}
	st.Padding = st.StoredSlots - st.NNZ
	return st
}
