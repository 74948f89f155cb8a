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
		for _, fam := range warmFamilies(scale) {
			m := fam.m(rand.New(rand.NewSource(1)))
			spmv := serialCSRSpMV(m)
			for _, method := range methodsUnderTest() {
				if method.Kind == CSR || method.Kind == SegCSRKind {
					continue
				}
				b.Run(fmt.Sprintf("s%d/%s/%s", scale, fam.name, method), func(b *testing.B) {
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

// benchFamily is one generator family of the benchmarks' matrix pool.
type benchFamily struct {
	name string
	m    func(*rand.Rand) *matrix.CSR
}

// warmFamilies returns the internal/gen families of the serving
// benchmark's warm-spmv pool at 2^scale rows.
func warmFamilies(scale int) []benchFamily {
	rows := 1 << scale
	return []benchFamily{
		{"rmat_d16", func(rng *rand.Rand) *matrix.CSR {
			m := gen.RMATRows(rng, rows, 16, gen.MedSkew)
			return gen.CapRowDegree(rng, m, max(32, m.NNZ()/500))
		}},
		{"rgg_d16", func(rng *rand.Rand) *matrix.CSR { return gen.RGG(rng, rows, 16) }},
		{"banded_15", func(rng *rand.Rand) *matrix.CSR {
			return gen.Banded(rng, rows, []int{-7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7})
		}},
		{"stencil9", func(*rand.Rand) *matrix.CSR {
			g := 1 << (scale / 2)
			return gen.Stencil2D(g, rows/g, true)
		}},
		{"powerlaw_256", func(rng *rand.Rand) *matrix.CSR { return gen.PowerLawRows(rng, rows, 2.1, 256) }},
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
