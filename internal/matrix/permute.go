package matrix

import (
	"fmt"
	"sort"
)

// Permutation maps new positions to old positions: perm[new] = old. Applying
// it to rows produces a matrix whose row new is the original row perm[new].
type Permutation []int32

// Identity returns the identity permutation of length n.
func Identity(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Valid reports whether p is a bijection on [0, len(p)).
func (p Permutation) Valid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if int(v) < 0 || int(v) >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns the inverse permutation: inv[old] = new.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for newPos, oldPos := range p {
		//lint:ignore numsafety newPos < len(p), and a Permutation longer than MaxInt32 cannot exist: its own int32 elements could not index it
		inv[oldPos] = int32(newPos)
	}
	return inv
}

// SortByCountsDesc returns the permutation that orders buckets by descending
// count, breaking ties by ascending original index so the result is
// deterministic. perm[new] = old. This is the building block of both Row
// Frequency Sorting (RFS) and Column Frequency Sorting (CFS) from LAV.
func SortByCountsDesc(counts []int64) Permutation {
	p := Identity(len(counts))
	sort.SliceStable(p, func(i, j int) bool {
		return counts[p[i]] > counts[p[j]]
	})
	return p
}

// PermuteRows returns a new matrix whose row i is the original row perm[i].
func (m *CSR) PermuteRows(perm Permutation) *CSR {
	if len(perm) != m.Rows {
		panic(fmt.Sprintf("matrix: row permutation len %d for %d rows", len(perm), m.Rows))
	}
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int64, m.Rows+1),
		ColIdx: make([]int32, m.NNZ()),
		Vals:   make([]float64, m.NNZ()),
	}
	pos := int64(0)
	for newRow, oldRow := range perm {
		cols, vals := m.Row(int(oldRow))
		copy(out.ColIdx[pos:], cols)
		copy(out.Vals[pos:], vals)
		pos += int64(len(cols))
		out.RowPtr[newRow+1] = pos
	}
	return out
}

// PermuteCols returns a new matrix whose column inv[j] holds the original
// column j, where inv is the inverse of perm (perm[new] = old). Column
// indices are re-sorted within each row.
func (m *CSR) PermuteCols(perm Permutation) *CSR {
	if len(perm) != m.Cols {
		panic(fmt.Sprintf("matrix: col permutation len %d for %d cols", len(perm), m.Cols))
	}
	inv := perm.Inverse()
	out := m.Clone()
	rs := &rowSorter{}
	for i := 0; i < out.Rows; i++ {
		lo, hi := out.RowPtr[i], out.RowPtr[i+1]
		rs.cols, rs.vals = out.ColIdx[lo:hi], out.Vals[lo:hi]
		for k := range rs.cols {
			rs.cols[k] = inv[rs.cols[k]]
		}
		sort.Sort(rs) // a row's columns are distinct, so stability is moot
	}
	return out
}

// GatherVec permutes a dense vector: out[i] = x[perm[i]]. out may be
// preallocated with len(perm); if nil a new slice is allocated.
func GatherVec(out []float64, x []float64, perm Permutation) []float64 {
	if out == nil {
		out = make([]float64, len(perm))
	}
	for i, old := range perm {
		out[i] = x[old]
	}
	return out
}

// ScatterVec inverts GatherVec: out[perm[i]] = x[i].
func ScatterVec(out []float64, x []float64, perm Permutation) []float64 {
	if out == nil {
		out = make([]float64, len(perm))
	}
	for i, old := range perm {
		out[old] = x[i]
	}
	return out
}
