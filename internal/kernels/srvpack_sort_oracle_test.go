package kernels

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// The comparison sorts the SRVPack builder used before its counting sorts,
// kept as the oracle the counting sorts must reproduce exactly.

// oracleSortByCountsDesc orders buckets by descending count, ties by
// ascending index.
func oracleSortByCountsDesc(counts []int64) matrix.Permutation {
	p := matrix.Identity(len(counts))
	sort.SliceStable(p, func(i, j int) bool { return counts[p[i]] > counts[p[j]] })
	return p
}

// oracleCFS is CFS over oracleSortByCountsDesc.
func oracleCFS(m *matrix.CSR) matrix.Permutation {
	return oracleSortByCountsDesc(m.ColCounts())
}

// oracleWindowSortRows stable-sorts each window of sigma positions of base
// by descending count.
func oracleWindowSortRows(base matrix.Permutation, counts []int64, sigma int) matrix.Permutation {
	out := append(matrix.Permutation(nil), base...)
	if sigma <= 1 {
		return out
	}
	for lo := 0; lo < len(out); lo += sigma {
		window := out[lo:min(lo+sigma, len(out))]
		sort.SliceStable(window, func(i, j int) bool { return counts[window[i]] > counts[window[j]] })
	}
	return out
}

// oracleRow orders one row's parallel column and value arrays by column.
type oracleRow struct {
	cols []int32
	vals []float64
}

func (r oracleRow) Len() int           { return len(r.cols) }
func (r oracleRow) Less(a, b int) bool { return r.cols[a] < r.cols[b] }
func (r oracleRow) Swap(a, b int) {
	r.cols[a], r.cols[b] = r.cols[b], r.cols[a]
	r.vals[a], r.vals[b] = r.vals[b], r.vals[a]
}

// oraclePermuteCols renames every column to its rank and sorts each row by
// the new column.
func oraclePermuteCols(m *matrix.CSR, perm matrix.Permutation) *matrix.CSR {
	inv := perm.Inverse()
	out := m.Clone()
	for i := 0; i < out.Rows; i++ {
		lo, hi := out.RowPtr[i], out.RowPtr[i+1]
		row := oracleRow{out.ColIdx[lo:hi], out.Vals[lo:hi]}
		for k := range row.cols {
			row.cols[k] = inv[row.cols[k]]
		}
		sort.Sort(row)
	}
	return out
}

// withOracleSorts runs f with the builder's sorts swapped for the oracles.
func withOracleSorts(f func()) {
	c, p, w := colRanks, permuteCols, windowSort
	defer func() { colRanks, permuteCols, windowSort = c, p, w }()
	colRanks, permuteCols, windowSort = oracleCFS, oraclePermuteCols, oracleWindowSortRows
	f()
}

// genFamilies returns one matrix of every internal/gen family, with row
// counts that leave partial chunks and windows.
func genFamilies(rng *rand.Rand) map[string]*matrix.CSR {
	return map[string]*matrix.CSR{
		"rmat":            gen.RMATRows(rng, 1500, 8, gen.MedSkew),
		"rmat-highskew":   gen.RMAT(rng, 10, 12, gen.HighSkew),
		"rgg":             gen.RGG(rng, 1021, 6),
		"banded":          gen.Banded(rng, 999, []int{-7, -1, 0, 1, 7}),
		"stencil2d":       gen.Stencil2D(31, 33, true),
		"stencil3d":       gen.Stencil3D(9, 10, 11),
		"fem":             gen.FEMLike(rng, 1003, 4, 3),
		"irregularbanded": gen.IrregularBanded(rng, 1201, 24, 40),
		"uniform":         gen.Uniform(rng, 1100, 5),
		"powerlaw":        gen.PowerLawRows(rng, 1203, 2.0, 200),
	}
}

// TestPackMatchesSortOracle builds every SRVPack method of the model space
// on every generator family twice, with the counting sorts and with the
// comparison sorts they replaced, and requires the same pack: column
// permutation, row orders, chunk offsets, column indices, and values bit
// for bit.
func TestPackMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, m := range genFamilies(rng) {
		for _, method := range methodsUnderTest() {
			if method.Kind == CSR || method.Kind == SegCSRKind {
				continue
			}
			got := Build(m, method, 0).(*SRVPack)
			var want *SRVPack
			withOracleSorts(func() { want = Build(m, method, 0).(*SRVPack) })
			if err := packsDiffer(want, got); err != "" {
				t.Errorf("%s %s: %s", name, method, err)
			}
		}
	}
}

// packsDiffer names the first field in which got differs from want, or
// returns "".
func packsDiffer(want, got *SRVPack) string {
	switch {
	case want.Rows != got.Rows || want.Cols != got.Cols || want.C != got.C || want.nnz != got.nnz:
		return "shape differs"
	case !slices.Equal(want.ColPerm, got.ColPerm):
		return "ColPerm differs"
	case len(want.Segments) != len(got.Segments):
		return "segment count differs"
	}
	for k := range want.Segments {
		w, g := &want.Segments[k], &got.Segments[k]
		switch {
		case !slices.Equal(w.RowOrder, g.RowOrder):
			return "RowOrder differs"
		case !slices.Equal(w.ChunkOff, g.ChunkOff):
			return "ChunkOff differs"
		case !slices.Equal(w.ColIdx, g.ColIdx):
			return "ColIdx differs"
		case !slices.EqualFunc(w.Vals, g.Vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
			return "Vals differ in their bits"
		case w.ColLo != g.ColLo || w.ColHi != g.ColHi || w.maxIdx != g.maxIdx:
			return "column range differs"
		}
	}
	return ""
}

// TestCountingSortsMatchOracle compares each counting sort with its oracle
// on keys with many ties, zeros and a long tail, and on every window size
// from one to past the length.
func TestCountingSortsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(rng.Intn(1 + trial%40))
			if rng.Intn(50) == 0 {
				counts[i] = int64(rng.Intn(5000))
			}
		}
		if got, want := matrix.SortByCountsDesc(counts), oracleSortByCountsDesc(counts); !slices.Equal(got, want) {
			t.Fatalf("SortByCountsDesc(%v) = %v, oracle %v", counts, got, want)
		}
		base := matrix.Identity(n)
		rng.Shuffle(n, func(i, j int) { base[i], base[j] = base[j], base[i] })
		for _, sigma := range []int{0, 1, 2, 3, 7, 32, 64, n - 1, n, n + 5} {
			if got, want := WindowSortRows(base, counts, sigma), oracleWindowSortRows(base, counts, sigma); !slices.Equal(got, want) {
				t.Fatalf("WindowSortRows(sigma=%d) = %v, oracle %v", sigma, got, want)
			}
		}
	}
	for name, m := range genFamilies(rng) {
		perm := CFS(m)
		if got, want := m.PermuteCols(perm), oraclePermuteCols(m, perm); !got.Equal(want) {
			t.Errorf("%s: PermuteCols differs from the sorting oracle", name)
		}
	}
}
