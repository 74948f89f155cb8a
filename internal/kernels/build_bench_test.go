package kernels

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// buildSink keeps the built format live so the build is not optimized away.
var buildSink Format

// BenchmarkBuild times kernels.Build of every SRVPack method of
// ModelSpace(Scaled) on the internal/gen families at 2^13 and 2^15 rows,
// the shapes of the serving benchmark's warm-spmv pool. Beside ns/op it
// reports spmv/op: the build as a multiple of one serial CSR[Dyn] SpMV on
// the same matrix, the unit the paper gives preprocessing in. That unit is
// timed by the same binary, so a change to the CSR kernel moves every
// spmv/op; unit_ns reports it, so that a build change and a unit change
// can be told apart.
func BenchmarkBuild(b *testing.B) {
	for _, scale := range []int{13, 15} {
		for _, fam := range gen.WarmFamilies(1 << scale) {
			m := fam.New(rand.New(rand.NewSource(1)))
			spmv := serialCSRSpMV(m)
			for _, method := range methodsUnderTest() {
				if method.Kind == CSR || method.Kind == SegCSRKind {
					continue
				}
				b.Run(fmt.Sprintf("s%d/%s/%s", scale, fam.Name, method), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						buildSink = Build(m, method, 0)
					}
					b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(spmv), "spmv/op")
					b.ReportMetric(float64(spmv), "unit_ns")
				})
			}
		}
	}
}

// serialCSRSpMV returns the fastest of 20 serial CSR[Dyn] SpMVs on m, after
// one that pages the arrays in.
func serialCSRSpMV(m *matrix.CSR) time.Duration {
	f := Build(m, Method{Kind: CSR, Sched: Dyn}, 0)
	x, y := matrix.Ones(m.Cols), make([]float64, m.Rows)
	f.SpMV(y, x)
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 20; rep++ {
		t0 := time.Now()
		f.SpMV(y, x)
		best = min(best, time.Since(t0))
	}
	return best
}
