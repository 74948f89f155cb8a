package kernels

import "wise/internal/matrix"

// RFS (Row Frequency Sorting) returns the permutation ordering all rows by
// descending nonzero count (stable on ties). Sell-c-R applies RFS globally;
// LAV applies it per segment.
func RFS(m *matrix.CSR) matrix.Permutation {
	return matrix.SortByCountsDesc(m.RowCounts())
}

// CFS (Column Frequency Sorting) returns the permutation ordering all
// columns by descending nonzero count: perm[rank] = original column. LAV and
// LAV-1Seg use it to pack frequently accessed input-vector elements together.
func CFS(m *matrix.CSR) matrix.Permutation {
	return matrix.SortByCountsDesc(m.ColCounts())
}

// WindowSortRows returns the permutation that, within each window of sigma
// consecutive positions of base, reorders rows by descending count (stable).
// With sigma >= len(base) this degenerates to a full RFS of base; with
// sigma <= 1 it returns base unchanged. counts[row] gives the sort key.
//
// It makes two stable counting-sort passes over the positions: by
// descending count, then by window. The second keeps the first's order
// within each window, so ties stay in position order. When one window
// covers every position the second pass would leave the order as it is,
// so the count order is read through base directly.
func WindowSortRows(base matrix.Permutation, counts []int64, sigma int) matrix.Permutation {
	if sigma <= 1 {
		return append(matrix.Permutation(nil), base...)
	}
	keys := make([]int64, len(base))
	for pos, row := range base {
		keys[pos] = counts[row]
	}
	byCount := matrix.SortByCountsDesc(keys)
	if sigma >= len(base) {
		for i, pos := range byCount {
			byCount[i] = base[pos]
		}
		return byCount
	}
	out := make(matrix.Permutation, len(base))
	// next[w] is the next free position of window w.
	next := make([]int, (len(base)+sigma-1)/sigma)
	for w := range next {
		next[w] = w * sigma
	}
	for _, pos := range byCount {
		w := int(pos) / sigma
		out[next[w]] = base[pos]
		next[w]++
	}
	return out
}

// segmentSplit computes the LAV dense/sparse segment boundary: given column
// nonzero counts already ordered by descending frequency (counts[rank]), it
// returns the smallest rank s such that the columns with rank < s hold at
// least a T fraction of all nonzeros. Both segments are guaranteed nonempty
// when the matrix has at least two ranked columns with nonzeros; otherwise
// the boundary may equal the column count (single-segment degenerate case).
func segmentSplit(rankedCounts []int64, t float64) int {
	var total int64
	for _, c := range rankedCounts {
		total += c
	}
	if total == 0 {
		return len(rankedCounts)
	}
	target := t * float64(total)
	var cum int64
	for s, c := range rankedCounts {
		cum += c
		if float64(cum) >= target {
			return s + 1
		}
	}
	return len(rankedCounts)
}
