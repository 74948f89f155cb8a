package matrix

import "sort"

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

// triplets is a coordinate list in struct-of-arrays form, in input order.
// Its arrays grow by doubling but never past limit, the most entries the
// input declared, so a list that reaches its declared size holds no slack.
type triplets struct {
	row, col []int32
	val      []float64
	limit    int
}

func newTriplets(capacity, limit int) *triplets {
	return &triplets{
		row:   make([]int32, 0, capacity),
		col:   make([]int32, 0, capacity),
		val:   make([]float64, 0, capacity),
		limit: limit,
	}
}

// addAll appends the triplets (ri[k], ci[k], v[k]) in order.
func (t *triplets) addAll(ri, ci []int32, v []float64) {
	if n := len(t.row) + len(ri); n > cap(t.row) {
		c := max(2*cap(t.row), 16)
		if len(t.row) < t.limit {
			c = min(c, t.limit)
		}
		c = max(c, n)
		t.row, t.col, t.val = regrow(t.row, c), regrow(t.col, c), regrow(t.val, c)
	}
	t.row = append(t.row, ri...)
	t.col = append(t.col, ci...)
	t.val = append(t.val, v...)
}

// regrow returns a copy of s with capacity exactly n.
func regrow[E any](s []E, n int) []E {
	out := make([]E, len(s), n)
	copy(out, s)
	return out
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
