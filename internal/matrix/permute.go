package matrix

import "fmt"

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
//
// It is a stable counting sort, O(len(counts) + max count): the counts of a
// matrix's rows or columns are bounded by its other dimension. A negative
// count panics.
func SortByCountsDesc(counts []int64) Permutation {
	var top int64
	for _, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("matrix: SortByCountsDesc count %d is negative", c))
		}
		top = max(top, c)
	}
	// Bucket k holds count top-k; next[k] is its next free position.
	next := make([]int, top+1)
	for _, c := range counts {
		next[top-c]++
	}
	pos := 0
	for k, n := range next {
		next[k], pos = pos, pos+n
	}
	p := make(Permutation, len(counts))
	for i, c := range counts {
		k := top - c
		p[next[k]] = int32(i)
		next[k]++
	}
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
// column j, where inv is the inverse of perm (perm[new] = old). It
// transposes the matrix, then transposes it back reading the transpose's
// rows, the original columns, in perm order: each row of the result gets
// its new columns in ascending order, with no sort.
func (m *CSR) PermuteCols(perm Permutation) *CSR {
	if len(perm) != m.Cols {
		panic(fmt.Sprintf("matrix: col permutation len %d for %d cols", len(perm), m.Cols))
	}
	t := m.Transpose()
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: make([]int32, m.NNZ()),
		Vals:   make([]float64, m.NNZ()),
	}
	next := append([]int64(nil), m.RowPtr[:m.Rows]...)
	for newCol, oldCol := range perm {
		rows, vals := t.Row(int(oldCol))
		for k, r := range rows {
			pos := next[r]
			next[r]++
			//lint:ignore numsafety newCol < len(perm), and a Permutation longer than MaxInt32 cannot exist: its own int32 elements could not index it
			out.ColIdx[pos] = int32(newCol)
			out.Vals[pos] = vals[k]
		}
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
