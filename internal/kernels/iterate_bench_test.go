package kernels

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// BenchmarkIterate times 8-product Iterate chains at 2 workers, the shape
// of a warm-spmv request, on the warm pool's families at 2^13 and 2^15
// rows plus the 2^13-row 5-point stencil, whose products are short enough
// that the per-product cost of starting and joining workers shows. One op
// is one chain; us/product divides it by the 8 products.
func BenchmarkIterate(b *testing.B) {
	const iters, workers = 8, 2
	methods := []Method{
		{Kind: CSR, Sched: Dyn},
		{Kind: CSR, Sched: St},
		{Kind: CSR, Sched: StCont},
		{Kind: SELLPACK, C: 8, Sched: StCont},
		{Kind: SellCR, C: 4, Sched: Dyn},
		{Kind: LAV, C: 4, T: 0.7, Sched: Dyn},
	}
	for _, scale := range []int{13, 15} {
		fams := warmFamilies(scale)
		if scale == 13 {
			fams = append(fams, benchFamily{"stencil5", func(*rand.Rand) *matrix.CSR { return gen.Stencil2D(1<<6, 1<<7, false) }})
		}
		for _, fam := range fams {
			m := fam.m(rand.New(rand.NewSource(1)))
			x := matrix.Ones(m.Cols)
			for _, method := range methods {
				f := Build(m, method, 0)
				b.Run(fmt.Sprintf("s%d/%s/%s", scale, fam.name, method), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := Iterate(context.Background(), f, m.Rows, x, iters, workers); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*iters), "us/product")
				})
			}
		}
	}
}
