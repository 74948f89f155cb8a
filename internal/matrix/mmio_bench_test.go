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
// gen.WarmFamilies, as written by WriteMatrixMarket, in MB/s of body.
// banded_15 carries 17-digit values; the others small integers or short
// decimals. Compare worker counts with -cpu 1,2.
func BenchmarkReadMatrixMarket(b *testing.B) {
	for _, fam := range gen.WarmFamilies(1 << 13) {
		var body bytes.Buffer
		if err := matrix.WriteMatrixMarket(&body, fam.New(rand.New(rand.NewSource(1)))); err != nil {
			b.Fatal(err)
		}
		raw := body.Bytes()
		b.Run(fam.Name, func(b *testing.B) {
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
