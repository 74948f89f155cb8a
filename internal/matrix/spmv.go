package matrix

import (
	"fmt"
	"math"
)

// SpMV computes y = A*x sequentially with the textbook CSR loop. It is the
// correctness reference for every optimized kernel in internal/kernels.
// y is overwritten. It panics on mismatched dimensions.
func (m *CSR) SpMV(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("matrix: SpMV dims y[%d]=A[%dx%d]*x[%d]", len(y), m.Rows, m.Cols, len(x)))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		var sum float64
		for k := lo; k < hi; k++ {
			sum += m.Vals[k] * x[m.ColIdx[k]]
		}
		y[i] = sum
	}
}

// Vector helpers used throughout examples and tests.

// Ones returns a length-n vector of ones.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Iota returns [0, 1, ..., n-1] as float64, a convenient deterministic
// input vector for correctness tests.
func Iota(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// equal-length vectors.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: MaxAbsDiff length mismatch")
	}
	var max float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Norm2 returns the Euclidean norm of v. It sums squares directly; only
// when that sum overflows to +Inf, or underflows to 0 while some entry is
// nonzero, does it recompute with every entry scaled by the largest
// magnitude, so a finite v whose squares leave the float64 range still has
// its finite, nonzero norm. Every other input gets the direct sum's bits.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	if math.IsNaN(s) || s > 0 && !math.IsInf(s, 1) {
		return math.Sqrt(s)
	}
	var scale float64
	for _, x := range v {
		scale = math.Max(scale, math.Abs(x))
	}
	if scale <= 0 || math.IsInf(scale, 1) {
		return scale
	}
	s = 0
	for _, x := range v {
		r := x / scale
		s += r * r
	}
	return scale * math.Sqrt(s)
}
