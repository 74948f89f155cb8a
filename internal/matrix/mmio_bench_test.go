package matrix_test

import (
	"bytes"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// benchSink keeps the parsed matrix live so the read is not optimized away.
var benchSink *matrix.CSR

// BenchmarkReadMatrixMarket times ReadMatrixMarket on 2^13-row bodies of
// the internal/gen families, as written by WriteMatrixMarket, in MB/s of
// body. banded carries 17-digit values; the others small integers or short
// decimals. Compare worker counts with -cpu 1,2.
func BenchmarkReadMatrixMarket(b *testing.B) {
	const rows = 1 << 13
	for _, tc := range []struct {
		name string
		m    func(*rand.Rand) *matrix.CSR
	}{
		{"rmat_d8", func(rng *rand.Rand) *matrix.CSR {
			m := gen.RMATRows(rng, rows, 8, gen.MedSkew)
			return gen.CapRowDegree(rng, m, max(32, m.NNZ()/500))
		}},
		{"rgg_d16", func(rng *rand.Rand) *matrix.CSR { return gen.RGG(rng, rows, 16) }},
		{"stencil9", func(*rand.Rand) *matrix.CSR { return gen.Stencil2D(90, 91, true) }},
		{"banded_7", func(rng *rand.Rand) *matrix.CSR {
			return gen.Banded(rng, rows, []int{-3, -2, -1, 0, 1, 2, 3})
		}},
		{"powerlaw_256", func(rng *rand.Rand) *matrix.CSR { return gen.PowerLawRows(rng, rows, 2.1, 256) }},
	} {
		var body bytes.Buffer
		if err := matrix.WriteMatrixMarket(&body, tc.m(rand.New(rand.NewSource(1)))); err != nil {
			b.Fatal(err)
		}
		raw := body.Bytes()
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := matrix.ReadMatrixMarket(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
	}
}
