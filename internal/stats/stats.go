// Package stats provides the summary statistics WISE uses to characterize
// nonzero distributions: mean, standard deviation, variance, min, max, the
// Gini coefficient, the p-ratio, and the number of nonempty buckets.
//
// WISE (PPoPP'23, Section 4.2) summarizes five distributions of a sparse
// matrix (nonzeros per row, per column, per tile, per row block, and per
// column block) with exactly these statistics; the resulting scalars are the
// inputs to its decision-tree performance models.
package stats

import (
	"math"
	"slices"
	"sort"
)

// Summary holds the per-distribution statistics of Table 2 in the paper.
//
// Gini and PRatio measure the imbalance of the distribution: a
// maximally-imbalanced distribution (all mass in one bucket) has Gini near 1
// and PRatio near 0, while a perfectly balanced one has Gini 0 and PRatio 0.5.
// NonEmpty counts buckets holding at least one unit of mass.
type Summary struct {
	Mean     float64
	Std      float64
	Variance float64
	Min      float64
	Max      float64
	Gini     float64
	PRatio   float64
	NonEmpty int
}

// Summarize computes the Summary of a bucket-count distribution. The input
// values must be non-negative (they are counts of nonzeros per bucket); it is
// not modified. An empty input yields the zero Summary with PRatio 0.5 (a
// degenerate distribution is treated as balanced).
func Summarize(counts []int64) Summary {
	if len(counts) == 0 {
		return Summary{PRatio: 0.5}
	}
	var (
		sum      float64
		min      = float64(counts[0])
		max      = float64(counts[0])
		nonEmpty int
	)
	for _, c := range counts {
		v := float64(c)
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		if c != 0 {
			nonEmpty++
		}
	}
	n := float64(len(counts))
	mean := sum / n
	var ss float64
	for _, c := range counts {
		d := float64(c) - mean
		ss += d * d
	}
	variance := ss / n
	sorted := sortedCopy(counts)
	return Summary{
		Mean:     mean,
		Std:      math.Sqrt(variance),
		Variance: variance,
		Min:      min,
		Max:      max,
		Gini:     giniSorted(sorted),
		PRatio:   pRatioSorted(sorted),
		NonEmpty: nonEmpty,
	}
}

// sortedCopy returns the counts in ascending order, leaving counts as is.
func sortedCopy(counts []int64) []int64 {
	sorted := slices.Clone(counts)
	slices.Sort(sorted)
	return sorted
}

// Gini computes the Gini coefficient of a non-negative distribution.
// 0 means perfectly balanced; values approaching 1 mean all mass is
// concentrated in a single bucket. Distributions with zero total mass or a
// single bucket are balanced by definition (Gini 0).
func Gini(counts []int64) float64 { return giniSorted(sortedCopy(counts)) }

// giniSorted is Gini of an ascending distribution.
func giniSorted(sorted []int64) float64 {
	n := len(sorted)
	if n <= 1 {
		return 0
	}
	var total, weighted float64
	for i, c := range sorted {
		v := float64(c)
		total += v
		weighted += float64(i+1) * v
	}
	if total == 0 { //lint:ignore floateq sum of non-negative integer counts is 0 only when all are 0
		return 0
	}
	nf := float64(n)
	// G = (2*sum(i*x_i) / (n*sum(x))) - (n+1)/n with x ascending, i in 1..n.
	g := 2*weighted/(nf*total) - (nf+1)/nf
	if g < 0 {
		g = 0
	}
	return g
}

// PRatio computes the p-ratio of a non-negative distribution: the value p
// such that the top p fraction of the buckets (by mass) holds a (1-p)
// fraction of the total mass. It is the fixed point of the Lorenz-curve
// complement; a perfectly balanced distribution has p = 0.5, and a
// maximally-imbalanced one approaches 0 (one bucket holds everything).
//
// Concretely we walk buckets in descending order and find, by linear
// interpolation along the cumulative-mass curve, the crossing point where
// cumulativeShare(topFraction = p) = 1 - p.
func PRatio(counts []int64) float64 { return pRatioSorted(sortedCopy(counts)) }

// pRatioSorted is PRatio of an ascending distribution, which it reads from
// the back: largest bucket first.
func pRatioSorted(sorted []int64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0.5
	}
	var total float64
	for k := n - 1; k >= 0; k-- {
		total += float64(sorted[k])
	}
	if total == 0 { //lint:ignore floateq sum of non-negative integer counts is 0 only when all are 0
		return 0.5
	}
	nf := float64(n)
	var cum float64
	prevFrac, prevShare := 0.0, 0.0
	for i := 0; i < n; i++ {
		cum += float64(sorted[n-1-i])
		frac := float64(i+1) / nf
		share := cum / total
		// Find where share >= 1 - frac, i.e. f(frac) = share + frac - 1 >= 0.
		if share+frac >= 1 {
			// Interpolate between (prevFrac, prevShare) and (frac, share).
			f0 := prevShare + prevFrac - 1
			f1 := share + frac - 1
			if f1 == f0 { //lint:ignore floateq degenerate-interpolation guard before dividing by f1-f0
				return frac
			}
			t := -f0 / (f1 - f0)
			return prevFrac + t*(frac-prevFrac)
		}
		prevFrac, prevShare = frac, share
	}
	return 1.0 // unreachable for valid input: share reaches 1 at frac 1.
}

// Mean returns the arithmetic mean of values, or 0 for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// GeoMean returns the geometric mean of positive values, ignoring
// non-positive entries. It returns 0 if no positive entry exists.
func GeoMean(values []float64) float64 {
	var logSum float64
	var n int
	for _, v := range values {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Histogram bins values into nbins equal-width bins over [lo, hi]. Values
// outside the range are clamped into the first or last bin. It returns the
// bin counts and the bin edges (nbins+1 entries).
func Histogram(values []float64, lo, hi float64, nbins int) (counts []int, edges []float64) {
	if nbins <= 0 || hi <= lo {
		return nil, nil
	}
	counts = make([]int, nbins)
	edges = make([]float64, nbins+1)
	width := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	for _, v := range values {
		idx := int((v - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= nbins {
			idx = nbins - 1
		}
		counts[idx]++
	}
	return counts, edges
}

// Percentile returns the q-th percentile (0 <= q <= 100) of values using
// linear interpolation between closest ranks. It returns 0 for empty input.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
