//go:build !amd64

package kernels

// Hosts other than amd64 run the Go loops; the vector kernels below are
// never called there.
const hasAVX2 = false

func rowSpanAVX2(y, x []float64, rowPtr []int64, colIdx []int32, vals []float64) {
	panic("kernels: no vector kernels on this architecture")
}

func span4AVX2(y, xs, vals []float64, cols []int32, chunkOff []int64, rowOrder []int32, add bool) int {
	panic("kernels: no vector kernels on this architecture")
}

func span8AVX2(y, xs, vals []float64, cols []int32, chunkOff []int64, rowOrder []int32, add bool) int {
	panic("kernels: no vector kernels on this architecture")
}
