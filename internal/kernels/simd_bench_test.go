package kernels

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wise/internal/matrix"
)

// BenchmarkKernelPath times the Go loops and the vector kernels side by
// side, for CSR rows and the C=4 and C=8 SRVPack methods on the warm
// pool's families at 2^13 and 2^15 rows: one serial SpMV ("serial"), and
// one 8-product Iterate chain at 2 workers, the shape of a warm /spmv
// ("chain"). Run with
//
//	go test -run '^$' -bench KernelPath -count 6 ./internal/kernels
//
// and compare each avx2 row with the go row beside it. On a host without
// AVX2 only the go rows run.
func BenchmarkKernelPath(b *testing.B) {
	const iters, workers = 8, 2
	methods := []Method{
		{Kind: CSR, Sched: Dyn},
		{Kind: SellCR, C: 4, Sched: Dyn},
		{Kind: SELLPACK, C: 8, Sched: StCont},
		{Kind: SellCSigma, C: 8, Sigma: 64, Sched: Dyn},
		{Kind: LAV, C: 4, T: 0.7, Sched: Dyn},
	}
	paths := []bool{false}
	if hasAVX2 {
		paths = append(paths, true)
	}
	defer func(v bool) { useSIMD = v }(useSIMD)
	for _, scale := range []int{13, 15} {
		for _, fam := range warmFamilies(scale) {
			m := fam.m(rand.New(rand.NewSource(1)))
			x, y := matrix.Ones(m.Cols), make([]float64, m.Rows)
			for _, method := range methods {
				useSIMD = hasAVX2
				f := Build(m, method, 0)
				for _, simd := range paths {
					name := "go"
					if simd {
						name = "avx2"
					}
					b.Run(fmt.Sprintf("serial/s%d/%s/%s/%s", scale, fam.name, method, name), func(b *testing.B) {
						useSIMD = simd
						for i := 0; i < b.N; i++ {
							f.SpMV(y, x)
						}
					})
					b.Run(fmt.Sprintf("chain/s%d/%s/%s/%s", scale, fam.name, method, name), func(b *testing.B) {
						useSIMD = simd
						for i := 0; i < b.N; i++ {
							if _, err := Iterate(context.Background(), f, m.Rows, x, iters, workers); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
