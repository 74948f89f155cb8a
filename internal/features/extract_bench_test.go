package features

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// benchFamily is one matrix of gen.WarmFamilies as a MatrixMarket body.
type benchFamily struct {
	name string
	body []byte
}

// benchFamilies are the 2^13-row gen.WarmFamilies, written as the bodies a
// stateless /predict uploads.
func benchFamilies(tb testing.TB) []benchFamily {
	tb.Helper()
	fams := gen.WarmFamilies(1 << 13)
	out := make([]benchFamily, 0, len(fams))
	for _, fam := range fams {
		var body bytes.Buffer
		if err := matrix.WriteMatrixMarket(&body, fam.New(rand.New(rand.NewSource(1)))); err != nil {
			tb.Fatal(err)
		}
		out = append(out, benchFamily{fam.Name, body.Bytes()})
	}
	return out
}

// TestExtractStructureRead holds the features of a structure read, which
// has no values, to those of the full read, bit for bit.
func TestExtractStructureRead(t *testing.T) {
	for _, fam := range benchFamilies(t) {
		full, err := matrix.ReadMatrixMarket(bytes.NewReader(fam.body))
		if err != nil {
			t.Fatal(err)
		}
		pat, err := matrix.ReadStructure(bytes.NewReader(fam.body), matrix.DefaultReadLimits())
		if err != nil {
			t.Fatal(err)
		}
		want, got := Extract(full, DefaultConfig()), Extract(pat, DefaultConfig())
		for k, name := range want.Names {
			if math.Float64bits(got.Values[k]) != math.Float64bits(want.Values[k]) {
				t.Errorf("%s: %s = %v from the structure read, %v from the full read", fam.name, name, got.Values[k], want.Values[k])
			}
		}
	}
}

// BenchmarkExtract times ExtractCtx on the structure read of each family,
// the matrix a stateless /predict extracts from, and reports its
// allocation per extraction.
func BenchmarkExtract(b *testing.B) {
	for _, fam := range benchFamilies(b) {
		m, err := matrix.ReadStructure(bytes.NewReader(fam.body), matrix.DefaultReadLimits())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExtractCtx(context.Background(), m, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
