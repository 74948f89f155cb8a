// Package matrix provides the sparse matrix substrate of the WISE
// reproduction: COO and CSR representations, conversions, row/column
// permutations, MatrixMarket I/O, and a reference sequential SpMV used as the
// correctness oracle for every optimized kernel.
package matrix

import (
	"errors"
	"fmt"
)

// Common validation errors.
var (
	ErrDimension  = errors.New("matrix: invalid dimension")
	ErrIndexRange = errors.New("matrix: index out of range")
	ErrUnsorted   = errors.New("matrix: column indices not sorted within row")
	ErrShape      = errors.New("matrix: mismatched array lengths")
)

// Entry is a single nonzero in coordinate form.
type Entry struct {
	Row, Col int32
	Val      float64
}

// COO is a coordinate-format sparse matrix. Entries may be in any order and
// may contain duplicates until Dedup is called.
type COO struct {
	Rows, Cols int
	Entries    []Entry
}

// NewCOO returns an empty COO with the given dimensions.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Add appends a nonzero entry. It panics if the coordinates are out of range,
// since out-of-range writes indicate a generator bug, not a recoverable
// condition.
func (c *COO) Add(row, col int32, val float64) {
	if int(row) < 0 || int(row) >= c.Rows || int(col) < 0 || int(col) >= c.Cols {
		panic(fmt.Sprintf("matrix: COO.Add (%d,%d) outside %dx%d", row, col, c.Rows, c.Cols))
	}
	c.Entries = append(c.Entries, Entry{Row: row, Col: col, Val: val})
}

// NNZ returns the number of stored entries (including any duplicates).
func (c *COO) NNZ() int { return len(c.Entries) }

// CSR is a compressed-sparse-row matrix: RowPtr has Rows+1 entries; the
// nonzeros of row i occupy ColIdx/Vals[RowPtr[i]:RowPtr[i+1]], with column
// indices sorted ascending within each row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Shape is a matrix's dimensions and stored-nonzero count.
type Shape struct{ Rows, Cols, NNZ int }

// Shape returns the matrix's dimensions and stored-nonzero count.
func (m *CSR) Shape() Shape { return Shape{m.Rows, m.Cols, m.NNZ()} }

// RowNNZ returns the number of nonzeros in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Row returns the column indices and values of row i as sub-slices of the
// matrix storage; callers must not modify them.
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// Validate checks structural invariants: monotone row pointers, in-range
// sorted column indices, and consistent array lengths.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return ErrDimension
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("%w: RowPtr len %d, want %d", ErrShape, len(m.RowPtr), m.Rows+1)
	}
	if len(m.ColIdx) != len(m.Vals) {
		return fmt.Errorf("%w: ColIdx len %d vs Vals len %d", ErrShape, len(m.ColIdx), len(m.Vals))
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != int64(len(m.ColIdx)) {
		return fmt.Errorf("%w: RowPtr endpoints [%d,%d], want [0,%d]",
			ErrShape, m.RowPtr[0], m.RowPtr[m.Rows], len(m.ColIdx))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("%w: row %d has negative extent", ErrShape, i)
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			c := m.ColIdx[k]
			if int(c) < 0 || int(c) >= m.Cols {
				return fmt.Errorf("%w: row %d col %d outside %d cols", ErrIndexRange, i, c, m.Cols)
			}
			if c <= prev {
				return fmt.Errorf("%w: row %d at position %d", ErrUnsorted, i, k)
			}
			prev = c
		}
	}
	return nil
}

// RowCounts returns the number of nonzeros in each row.
func (m *CSR) RowCounts() []int64 {
	counts := make([]int64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		counts[i] = m.RowPtr[i+1] - m.RowPtr[i]
	}
	return counts
}

// ColCounts returns the number of nonzeros in each column.
func (m *CSR) ColCounts() []int64 {
	counts := make([]int64, m.Cols)
	for _, c := range m.ColIdx {
		counts[c]++
	}
	return counts
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Vals:   append([]float64(nil), m.Vals...),
	}
	return out
}

// Equal reports whether two CSR matrices have identical structure and values.
func (m *CSR) Equal(o *CSR) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || len(m.ColIdx) != len(o.ColIdx) {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != o.ColIdx[i] || m.Vals[i] != o.Vals[i] { //lint:ignore floateq Equal is a deliberate bit-exact structural comparison
			return false
		}
	}
	return true
}

// String returns a short human-readable description.
func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.Rows, m.Cols, m.NNZ())
}

// AddToDiagonal returns a copy of the matrix with delta added to every
// diagonal element; diagonal entries missing from the sparsity pattern are
// created. Useful for shifting stencil operators to strict positive
// definiteness in the solver examples and tests.
func (m *CSR) AddToDiagonal(delta float64) *CSR {
	coo := m.ToCOO()
	present := make([]bool, m.Rows)
	for i := range coo.Entries {
		e := &coo.Entries[i]
		if e.Row == e.Col {
			e.Val += delta
			present[e.Row] = true
		}
	}
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		if !present[i] {
			coo.Add(int32(i), int32(i), delta)
		}
	}
	return coo.ToCSR()
}

// Scale returns a copy of the matrix with every value multiplied by s.
func (m *CSR) Scale(s float64) *CSR {
	out := m.Clone()
	for i := range out.Vals {
		out.Vals[i] *= s
	}
	return out
}
