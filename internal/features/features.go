// Package features extracts the WISE sparse-matrix feature set (paper
// Table 2): matrix size, nonzero skew of the row and column distributions,
// and nonzero locality statistics over a K x K logical tiling — including the
// per-tile unique-row/column and potential-reuse metrics with adjacency
// group sizes X in {4, 8, 16, 32, 64}.
package features

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"wise/internal/matrix"
	"wise/internal/stats"
)

// GroupSizes are the adjacency group widths X used for GrX_uniq and
// GrX_potReuse features (paper Section 4.2).
var GroupSizes = []int{4, 8, 16, 32, 64}

// groupSlots is the number of group widths the locality counts are kept
// for: X = 1 in slot 0, then GroupSizes in order.
const groupSlots = 6

// groupShifts holds log2 of the width in every group slot. Group widths are
// powers of two, so "same group" tests are shifts, and ascending, so a pair
// already seen at one width is seen at every wider one.
var groupShifts = func() [groupSlots]uint {
	if len(GroupSizes) != groupSlots-1 {
		panic(fmt.Sprintf("features: %d group sizes, want %d", len(GroupSizes), groupSlots-1))
	}
	var shifts [groupSlots]uint
	for k, x := range GroupSizes {
		if x <= 0 || x&(x-1) != 0 {
			panic(fmt.Sprintf("features: group size %d is not a power of two", x))
		}
		shifts[k+1] = uint(bits.TrailingZeros(uint(x)))
		if shifts[k+1] <= shifts[k] {
			panic(fmt.Sprintf("features: group sizes %v are not ascending", GroupSizes))
		}
	}
	return shifts
}()

// distributions are the five nonzero distributions of Table 2, in feature
// order, and summaryStats the statistics each is summarized by.
var (
	distributions = []string{"R", "C", "T", "RB", "CB"}
	summaryStats  = []string{"mu_", "sigma_", "var_", "gini_", "p_", "min_", "max_", "ne_"}
)

// featureNames is the fixed feature layout, built once so extraction
// allocates no strings.
var featureNames = func() []string {
	names := []string{"n_rows", "n_cols", "nnz"}
	for _, dist := range distributions {
		for _, stat := range summaryStats {
			names = append(names, stat+dist)
		}
	}
	names = append(names, "uniqR", "uniqC")
	for _, x := range GroupSizes {
		names = append(names, fmt.Sprintf("gr%d_uniqR", x), fmt.Sprintf("gr%d_uniqC", x))
	}
	names = append(names, "potReuseR", "potReuseC")
	for _, x := range GroupSizes {
		names = append(names, fmt.Sprintf("gr%d_potReuseR", x), fmt.Sprintf("gr%d_potReuseC", x))
	}
	return names
}()

// Config controls feature extraction.
type Config struct {
	// K is the logical tiling factor: the matrix is split into up to K x K
	// tiles of ceil(nR/K) x ceil(nC/K) elements. The paper uses K = 2048 for
	// 1-67M-row matrices; the scaled default is 64 so tiles keep the same
	// relationship to the scaled cache hierarchy.
	K int
}

// DefaultConfig returns the scaled tiling configuration.
func DefaultConfig() Config { return Config{K: 64} }

// PaperConfig returns the paper's tiling configuration (K = 2048).
func PaperConfig() Config { return Config{K: 2048} }

// Features is a named feature vector. Values and Names align by index; the
// layout is fixed for a given Config, so vectors from different matrices are
// directly comparable.
type Features struct {
	Names  []string
	Values []float64
}

// Get returns the value of the named feature, panicking if absent (a typo'd
// feature name is a programming error).
func (f Features) Get(name string) float64 {
	for i, n := range f.Names {
		if n == name {
			return f.Values[i]
		}
	}
	panic(fmt.Sprintf("features: unknown feature %q", name))
}

// FeatureCount returns the number of features extracted per matrix:
// 3 size + 2 x 8 skew + 3 x 8 locality-distribution + 4 uniq/potReuse +
// 4 x len(GroupSizes) grouped variants.
func FeatureCount() int { return 3 + 5*8 + 4 + 4*len(GroupSizes) }

// ctxCheckRows is the cancellation-check stride of the extraction loops: a
// ctx.Err() poll every 2^12 rows keeps deadline overruns bounded to one
// stride of work without measurable cost on the hot path.
const ctxCheckRows = 1 << 12

// Extract computes the full WISE feature vector of a matrix.
func Extract(m *matrix.CSR, cfg Config) Features {
	f, err := ExtractCtx(context.Background(), m, cfg)
	if err != nil {
		// Unreachable: ExtractCtx fails only on ctx cancellation, and the
		// background context is never cancelled.
		panic(err)
	}
	return f
}

// ExtractCtx is Extract with cancellation threaded through the row-scan
// loops, for callers with deadlines (wise-serve requests, wise-predict
// -timeout). On cancellation it returns ctx's error; the partial vector is
// discarded.
func ExtractCtx(ctx context.Context, m *matrix.CSR, cfg Config) (Features, error) {
	if cfg.K < 1 {
		cfg.K = 1
	}
	if err := ctx.Err(); err != nil {
		return Features{}, fmt.Errorf("features: extract: %w", err)
	}
	t := newTiling(m.Rows, m.Cols, cfg.K)
	w, err := walkRows(ctx, m, t)
	if err != nil {
		return Features{}, err
	}
	colSide, err := colSideCounts(ctx, m, t)
	if err != nil {
		return Features{}, err
	}

	// (1) Size properties.
	nnz := int64(m.NNZ())
	v := make([]float64, 0, FeatureCount())
	v = append(v, float64(m.Rows), float64(m.Cols), float64(nnz))

	// (2) Skew: R and C distributions; (3) locality: T/RB/CB distributions.
	for _, counts := range [][]int64{w.rowCounts, w.colCounts, w.tileCounts, w.rbCounts, w.cbCounts} {
		s := stats.Summarize(counts)
		v = append(v, s.Mean, s.Std, s.Variance, s.Gini, s.PRatio, s.Min, s.Max, float64(s.NonEmpty))
	}

	// Tile-layout features: unique rows/cols and reuse potential.
	denomNNZ := float64(nnz)
	if nnz == 0 {
		denomNNZ = 1
	}
	for g := range groupSlots {
		v = append(v, float64(w.rowSide[g])/denomNNZ, float64(colSide[g])/denomNNZ)
	}
	for g, s := range groupShifts {
		x := 1 << s
		nGroupsR := (m.Rows + x - 1) / x
		nGroupsC := (m.Cols + x - 1) / x
		v = append(v, float64(w.rowSide[g])/float64(max(nGroupsR, 1)), float64(colSide[g])/float64(max(nGroupsC, 1)))
	}
	return Features{Names: slices.Clone(featureNames), Values: v}, nil
}

// tiling describes the logical K x K grid over a matrix.
type tiling struct {
	tileRows, tileCols int // elements per tile in each dimension
	kr, kc             int // number of tile rows / columns
}

func newTiling(rows, cols, k int) tiling {
	tr := (rows + k - 1) / k
	if tr < 1 {
		tr = 1
	}
	tc := (cols + k - 1) / k
	if tc < 1 {
		tc = 1
	}
	kr := (rows + tr - 1) / tr
	if kr < 1 {
		kr = 1
	}
	kc := (cols + tc - 1) / tc
	if kc < 1 {
		kc = 1
	}
	return tiling{tileRows: tr, tileCols: tc, kr: kr, kc: kc}
}

// rowWalk holds everything one row-ordered pass over the nonzeros counts:
// the R, C, T, RB and CB distributions, and the row-side locality counts.
type rowWalk struct {
	rowCounts, colCounts, tileCounts, rbCounts, cbCounts []int64
	// rowSide[g] is the number of distinct (tile, row-group) pairs holding a
	// nonzero, for the group width of slot g. Slot 0 (X = 1) is the sum over
	// tiles of uniqR_i; for larger X it is the sum of GrX_uniqR_i, and
	// divided by the group count it equals the mean GrX_potReuseR.
	rowSide [groupSlots]int64
}

// walkRows makes the one row-ordered pass behind the skew, tile and
// row-side locality features. Rows ascend, so remembering the last row
// that touched each tile dedupes (tile, row-group) pairs exactly: the pair
// is new at width 2^s when the last row and this one differ above bit s,
// that is when bits.Len(last^i) > s. The walk keeps a histogram of that
// length, capped at one past the widest shift, and sums it per slot at the
// end.
func walkRows(ctx context.Context, m *matrix.CSR, t tiling) (rowWalk, error) {
	w := rowWalk{
		rowCounts:  make([]int64, m.Rows),
		colCounts:  make([]int64, m.Cols),
		tileCounts: make([]int64, t.kr*t.kc),
		rbCounts:   make([]int64, t.kr),
		cbCounts:   make([]int64, t.kc),
	}
	// lenHist is sized for any bits.Len result, so a wider GroupSizes needs
	// no change here.
	capLen := int(groupShifts[groupSlots-1]) + 1
	var lenHist [bits.UintSize + 1]int64
	lastRow := make([]int, t.kr*t.kc) // 1 + the last row seen per tile; 0 = none
	for i := 0; i < m.Rows; i++ {
		if i%ctxCheckRows == 0 && ctx.Err() != nil {
			return rowWalk{}, fmt.Errorf("features: extract: %w", ctx.Err())
		}
		cols, _ := m.Row(i)
		tr := i / t.tileRows
		w.rowCounts[i] = int64(len(cols))
		w.rbCounts[tr] += int64(len(cols))
		tileRow := w.tileCounts[tr*t.kc : (tr+1)*t.kc]
		lastRowOf := lastRow[tr*t.kc : (tr+1)*t.kc]
		prevTC := -1
		for _, c := range cols {
			w.colCounts[c]++
			tc := int(c) / t.tileCols
			tileRow[tc]++
			if tc == prevTC {
				continue // same tile as previous nonzero of this row
			}
			prevTC = tc
			l := capLen
			if last := lastRowOf[tc]; last != 0 {
				l = min(bits.Len(uint((last-1)^i)), capLen)
			}
			lenHist[l]++
			lastRowOf[tc] = i + 1
		}
	}
	for tc := 0; tc < t.kc; tc++ {
		lo, hi := tc*t.tileCols, min((tc+1)*t.tileCols, m.Cols)
		for _, n := range w.colCounts[lo:hi] {
			w.cbCounts[tc] += n
		}
	}
	for g, s := range groupShifts {
		for l := int(s) + 1; l <= capLen; l++ {
			w.rowSide[g] += lenHist[l]
		}
	}
	return w, nil
}

// colSideCounts mirrors the row-side counts for columns: distinct (tile,
// col-group) pairs per group slot. Columns are not globally sorted, so it
// processes one tile row at a time with epoch-stamped dedupe. For X = 1 the
// tile column is a function of the column, so a per-column epoch suffices;
// for larger X a group can straddle tile-column boundaries, so the epoch
// array is keyed by the exact (group, tileCol) pair. Every visited column
// stamps its pair at every width, so a pair already stamped at one width
// is stamped at all wider ones and the scan stops there.
func colSideCounts(ctx context.Context, m *matrix.CSR, t tiling) ([groupSlots]int64, error) {
	var counts [groupSlots]int64
	colEpoch := make([]int32, m.Cols)
	var pairEpochs [groupSlots][]int32 // slot 0 unused
	var sizes [groupSlots]int
	total := 0
	for g := 1; g < groupSlots; g++ {
		sizes[g] = ((m.Cols >> groupShifts[g]) + 1) * t.kc
		total += sizes[g]
	}
	pool := make([]int32, total)
	for g := 1; g < groupSlots; g++ {
		pairEpochs[g], pool = pool[:sizes[g]:sizes[g]], pool[sizes[g]:]
	}
	epoch := int32(0)
	for trLo := 0; trLo < m.Rows; trLo += t.tileRows {
		if ctx.Err() != nil {
			return counts, fmt.Errorf("features: extract: %w", ctx.Err())
		}
		epoch++
		trHi := min(trLo+t.tileRows, m.Rows)
		for _, c := range m.ColIdx[m.RowPtr[trLo]:m.RowPtr[trHi]] {
			if colEpoch[c] == epoch {
				continue
			}
			colEpoch[c] = epoch
			counts[0]++
			tc := int(c) / t.tileCols
			for g := 1; g < groupSlots; g++ {
				pair := (int(c)>>groupShifts[g])*t.kc + tc
				if pairEpochs[g][pair] == epoch {
					break
				}
				pairEpochs[g][pair] = epoch
				counts[g]++
			}
		}
	}
	return counts, nil
}
