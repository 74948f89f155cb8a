package gen

import (
	"math/bits"
	"math/rand"

	"wise/internal/matrix"
)

// Family is one named generator of the benchmarks' matrix pool.
type Family struct {
	Name string
	New  func(*rand.Rand) *matrix.CSR
}

// WarmFamilies returns the five families of the serving benchmark's
// warm-spmv pool at the given row count: hub-capped medium-skew RMAT, RGG,
// a 15-diagonal band, a 9-point stencil and power-law row degrees. Every
// package benchmark draws its matrices from this list, seeded by the
// caller, so the cells of one size are the same matrices in every package.
func WarmFamilies(rows int) []Family {
	return []Family{
		{"rmat_d16", func(rng *rand.Rand) *matrix.CSR {
			m := RMATRows(rng, rows, 16, MedSkew)
			return CapRowDegree(rng, m, max(32, m.NNZ()/500))
		}},
		{"rgg_d16", func(rng *rand.Rand) *matrix.CSR { return RGG(rng, rows, 16) }},
		{"banded_15", func(rng *rand.Rand) *matrix.CSR {
			return Banded(rng, rows, []int{-7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7})
		}},
		{"stencil9", func(*rand.Rand) *matrix.CSR {
			g := 1 << ((bits.Len(uint(rows)) - 1) / 2)
			return Stencil2D(g, rows/g, true)
		}},
		{"powerlaw_256", func(rng *rand.Rand) *matrix.CSR { return PowerLawRows(rng, rows, 2.1, 256) }},
	}
}
