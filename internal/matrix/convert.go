package matrix

import (
	"slices"
	"sort"
)

// Dedup sorts the COO entries by (row, col) and merges duplicates by summing
// their values in insertion order. Entries that sum to exactly zero are kept
// (explicit zeros are legal nonzero slots in sparse formats).
func (c *COO) Dedup() { c.ToCSR() }

// ToCSR converts the COO matrix to CSR. Duplicate coordinates are summed in
// insertion order and column indices end up sorted within each row. The COO
// is left in deduplicated, sorted state.
func (c *COO) ToCSR() *CSR {
	n := len(c.Entries)
	rows, cols, vals := make([]int32, n), make([]int32, n), make([]float64, n)
	for k, e := range c.Entries {
		rows[k], cols[k], vals[k] = e.Row, e.Col, e.Val
	}
	m := buildCSR(c.Rows, c.Cols, rows, cols, vals)
	c.Entries = c.Entries[:m.NNZ()]
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c.Entries[k] = Entry{Row: int32(i), Col: m.ColIdx[k], Val: m.Vals[k]}
		}
	}
	return m
}

// blockTriplets is one block's share of a coordinate list in
// struct-of-arrays form, in input order, with what merging it needs to
// know: whether it is in strictly increasing (row, col) order and, if so,
// how many triplets each of its rows holds.
type blockTriplets struct {
	row, col []int32
	val      []float64
	ordered  bool
	runs     []rowRun // per-row counts, in row order; set when ordered
}

// rowRun counts the n consecutive triplets of one row.
type rowRun struct{ row, n int32 }

// reset gives t room for n triplets, keeping those it holds, and sets
// the lengths of its arrays to their common capacity.
func (t *blockTriplets) reset(n int) {
	if c := min(cap(t.row), cap(t.col), cap(t.val)); c >= n {
		t.row, t.col, t.val = t.row[:c], t.col[:c], t.val[:c]
		return
	}
	row, col, val := make([]int32, n), make([]int32, n), make([]float64, n)
	copy(row, t.row)
	copy(col, t.col)
	copy(val, t.val)
	t.row, t.col, t.val = row, col, val
}

// summarize sets t.ordered and, when it is true, t.runs.
func (t *blockTriplets) summarize() {
	// Room for rows of two triplets on average, so that a fresh t does not
	// grow its runs a step at a time.
	t.ordered, t.runs = true, slices.Grow(t.runs[:0], len(t.row)/2+1)
	run := rowRun{row: -1}
	for k, r := range t.row {
		if r == run.row {
			if t.col[k] <= t.col[k-1] {
				t.ordered = false
				return
			}
			run.n++
			continue
		}
		if r < run.row {
			t.ordered = false
			return
		}
		if run.n > 0 {
			t.runs = append(t.runs, run)
		}
		run = rowRun{row: r, n: 1}
	}
	if run.n > 0 {
		t.runs = append(t.runs, run)
	}
}

// truncate keeps the first k triplets of t.
func (t *blockTriplets) truncate(k int) {
	t.row, t.col, t.val = t.row[:k], t.col[:k], t.val[:k]
	t.summarize()
}

// entryList is a coordinate list built from blocks of triplets in input
// order. While the list is in strictly increasing (row, col) order and
// expects want triplets, each block's columns and values are copied once,
// as the block arrives, into CSR arrays of want entries, and its row runs
// are added to the list's. The arrays are reserved once want is at most
// maxEntryPrealloc more than twice the triplets read, so a header alone
// reserves no more than maxEntryPrealloc; until then, and after the order
// breaks, blocks are kept as they are for csr to copy. A list without
// values keeps only the structure: val stays nil, and so do the Vals of
// the matrix it assembles.
type entryList struct {
	want   int  // the triplets expected, or 0 if not known
	rows   int  // the matrix's rows, the most runs an ordered list can have
	values bool // keep the triplets' values
	n      int
	// ordered reports whether the whole list is in strictly increasing
	// (row, col) order; last is its last coordinate.
	ordered bool
	last    [2]int32
	// col and val, once reserved, hold the columns and values of the
	// first copied triplets, and runs counts them per row.
	col    []int32
	val    []float64
	runs   []rowRun
	copied int
	parts  []*blockTriplets // the blocks not copied, in order
}

// add appends the triplets of t. It reports whether the list keeps t;
// if not, t was copied and is the caller's to reuse.
func (l *entryList) add(t *blockTriplets) (kept bool) {
	k := len(t.row)
	if k == 0 {
		return false
	}
	first := [2]int32{t.row[0], t.col[0]}
	l.ordered = t.ordered && (l.n == 0 || l.ordered &&
		(l.last[0] < first[0] || l.last[0] == first[0] && l.last[1] < first[1]))
	l.last = [2]int32{t.row[k-1], t.col[k-1]}
	l.n += k
	if !l.ordered || l.n > l.want || l.col == nil && l.want > maxEntryPrealloc+2*l.n {
		l.parts = append(l.parts, t)
		return true
	}
	if l.col == nil {
		l.col = make([]int32, l.want)
		if l.values {
			l.val = make([]float64, l.want)
		}
		l.runs = make([]rowRun, 0, min(l.rows, l.want))
	}
	for _, p := range l.parts {
		l.copyIn(p)
		releaseTriplets(p)
	}
	l.parts = l.parts[:0]
	l.copyIn(t)
	return false
}

// copyIn copies the columns and values of the ordered t into the reserved
// arrays and adds its row runs to the list's.
func (l *entryList) copyIn(t *blockTriplets) {
	copy(l.col[l.copied:], t.col)
	if l.values {
		copy(l.val[l.copied:], t.val)
	}
	l.copied += len(t.col)
	runs := t.runs
	if r := len(l.runs) - 1; r >= 0 && l.runs[r].row == runs[0].row {
		l.runs[r].n += runs[0].n
		runs = runs[1:]
	}
	l.runs = append(l.runs, runs...)
}

// release returns the blocks the list still holds to the triplet pool.
func (l *entryList) release() {
	for _, t := range l.parts {
		releaseTriplets(t)
	}
	l.parts = nil
}

// csr assembles the rows x cols CSR matrix of the list's in-range
// triplets, the result buildCSR gives. A list whose blocks were all copied
// needs neither its rows nor a pass over its triplets: its columns and
// values are the CSR arrays, and its row runs add up to the row pointers.
// Any other list is copied once, its copied prefix's rows rebuilt from the
// runs, and handed to buildCSR.
func (l *entryList) csr(rows, cols int) *CSR {
	if !l.ordered || l.copied < l.n {
		ri, ci, v := make([]int32, l.n), make([]int32, l.n), make([]float64, l.n)
		off := 0
		for _, run := range l.runs {
			for end := off + int(run.n); off < end; off++ {
				ri[off] = run.row
			}
		}
		copy(ci, l.col[:l.copied])
		copy(v[:l.copied], l.val)
		for _, t := range l.parts {
			copy(ri[off:], t.row)
			copy(ci[off:], t.col)
			copy(v[off:], t.val)
			off += len(t.row)
		}
		m := buildCSR(rows, cols, ri, ci, v)
		if !l.values {
			m.Vals = nil
		}
		return m
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1), ColIdx: l.col[:l.n:l.n]}
	if l.values {
		m.Vals = l.val[:l.n:l.n]
	}
	for _, run := range l.runs {
		m.RowPtr[run.row+1] = int64(run.n)
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// buildCSR assembles a rows x cols CSR matrix from in-range coordinate
// triplets in input order. It is the one triplet-to-CSR path: a stable
// counting sort by row, a stable sort by column within each row, and a merge
// that sums duplicate coordinates in input order. Input already in strictly
// increasing (row, col) order skips both sorts and becomes the CSR arrays
// as is, so callers hand over ownership of cols and vals.
func buildCSR(rows, cols int, ri, ci []int32, v []float64) *CSR {
	n := len(ri)
	rowPtr := make([]int64, rows+1)
	ordered := true
	for k, r := range ri {
		rowPtr[r+1]++
		if k > 0 && (r < ri[k-1] || r == ri[k-1] && ci[k] <= ci[k-1]) {
			ordered = false
		}
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr}
	if ordered {
		m.ColIdx, m.Vals = ci[:n:n], v[:n:n]
		return m
	}

	// Scatter by row, using rowPtr[r] as row r's write cursor; afterwards
	// rowPtr[r] holds the end of row r, so shifting it by one slot restores
	// the row starts.
	colIdx, vals := make([]int32, n), make([]float64, n)
	for k, r := range ri {
		p := rowPtr[r]
		colIdx[p], vals[p] = ci[k], v[k]
		rowPtr[r]++
	}
	copy(rowPtr[1:], rowPtr[:rows])
	rowPtr[0] = 0

	// Sort each row by column, keeping equal columns in input order, and
	// merge duplicates, compacting in place.
	w := int64(0)
	rs := &rowSorter{}
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		rs.cols, rs.vals = colIdx[lo:hi], vals[lo:hi]
		sort.Stable(rs)
		rowPtr[i] = w
		for k := lo; k < hi; k++ {
			if w > rowPtr[i] && colIdx[w-1] == colIdx[k] {
				vals[w-1] += vals[k]
				continue
			}
			colIdx[w], vals[w] = colIdx[k], vals[k]
			w++
		}
	}
	rowPtr[rows] = w
	m.ColIdx, m.Vals = colIdx[:w:w], vals[:w:w]
	return m
}

// rowSorter orders one row's parallel column and value arrays by column.
type rowSorter struct {
	cols []int32
	vals []float64
}

func (r *rowSorter) Len() int           { return len(r.cols) }
func (r *rowSorter) Less(a, b int) bool { return r.cols[a] < r.cols[b] }
func (r *rowSorter) Swap(a, b int) {
	r.cols[a], r.cols[b] = r.cols[b], r.cols[a]
	r.vals[a], r.vals[b] = r.vals[b], r.vals[a]
}

// ToCOO converts the CSR matrix back to coordinate form.
func (m *CSR) ToCOO() *COO {
	c := NewCOO(m.Rows, m.Cols)
	c.Entries = make([]Entry, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			c.Entries = append(c.Entries, Entry{Row: int32(i), Col: cols[k], Val: vals[k]})
		}
	}
	return c
}

// FromDense builds a CSR matrix from a dense row-major slice, storing every
// element with a nonzero value.
func FromDense(rows, cols int, dense []float64) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := dense[i*cols+j]; v != 0 { //lint:ignore floateq sparsity is defined by bit-exact zero
				c.Add(int32(i), int32(j), v)
			}
		}
	}
	return c.ToCSR()
}

// ToDense expands the matrix into a dense row-major slice. Intended for
// small matrices in tests.
func (m *CSR) ToDense() []float64 {
	dense := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			dense[i*m.Cols+int(cols[k])] = vals[k]
		}
	}
	return dense
}

// Transpose returns the transpose of the matrix in CSR form.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int64, m.Cols+1),
		ColIdx: make([]int32, m.NNZ()),
		Vals:   make([]float64, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int64(nil), t.RowPtr[:t.Rows]...)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			pos := next[cols[k]]
			next[cols[k]]++
			t.ColIdx[pos] = int32(i)
			t.Vals[pos] = vals[k]
		}
	}
	return t
}
