package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// BenchmarkSpanUnrolledVsGeneric times the unrolled C=4 and C=8 chunk loops
// against the generic loop at the same C, serially over whole segments, so
// the fast paths in spanSpMV keep having to earn their place. Both run as
// Go loops; BenchmarkKernelPath times the vector kernels. Run with
//
//	go test -run '^$' -bench SpanUnrolledVsGeneric -count 6 ./internal/kernels
//
// and compare each unrolled row with the generic row beside it.
func BenchmarkSpanUnrolledVsGeneric(b *testing.B) {
	defer func(v bool) { useSIMD = v }(useSIMD)
	useSIMD = false
	rng := rand.New(rand.NewSource(1))
	mats := []struct {
		name string
		m    *matrix.CSR
	}{
		{"rmat_r15_d8", gen.CapRowDegree(rng, gen.RMATRows(rng, 1<<15, 8, gen.MedSkew), 64)},
		{"rgg_r15_d6", gen.RGG(rng, 1<<15, 6)},
		{"banded_r15_d5", gen.Banded(rng, 1<<15, []int{-2, -1, 0, 1, 2})},
	}
	methods := []Method{
		{Kind: SellCR, C: 4, Sched: Dyn},
		{Kind: SELLPACK, C: 8, Sched: Dyn},
		{Kind: SellCSigma, C: 8, Sigma: 64, Sched: Dyn},
		{Kind: LAV, C: 4, T: 0.7, Sched: Dyn},
	}
	for _, mm := range mats {
		x := matrix.Ones(mm.m.Cols)
		y := make([]float64, mm.m.Rows)
		for _, method := range methods {
			p := BuildSRVPack(mm.m, method)
			xs := x
			if p.ColPerm != nil {
				xs = matrix.GatherVec(nil, x, p.ColPerm)
			}
			add := len(p.Segments) > 1
			for _, generic := range []bool{false, true} {
				name := "unrolled"
				if generic {
					name = "generic"
				}
				b.Run(fmt.Sprintf("%s/%s/%s", mm.name, method, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for si := range p.Segments {
							s := &p.Segments[si]
							if generic {
								s.spanC(p.C, 0, s.Chunks(), y, xs, add)
							} else {
								s.spanSpMV(p.C, 0, s.Chunks(), y, xs, add)
							}
						}
					}
				})
			}
		}
	}
}
