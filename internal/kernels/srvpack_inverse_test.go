package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// csrBitsDiffer names the first place in which got differs from want —
// shape, RowPtr, ColIdx, or the bits of Vals — or returns "".
func csrBitsDiffer(want, got *matrix.CSR) string {
	if want.Rows != got.Rows || want.Cols != got.Cols {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Vals) != len(want.Vals) {
		return fmt.Sprintf("array lengths %d/%d/%d, want %d/%d/%d",
			len(got.RowPtr), len(got.ColIdx), len(got.Vals), len(want.RowPtr), len(want.ColIdx), len(want.Vals))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Sprintf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			return fmt.Sprintf("ColIdx[%d] = %d, want %d", k, got.ColIdx[k], want.ColIdx[k])
		}
		if g, w := math.Float64bits(got.Vals[k]), math.Float64bits(want.Vals[k]); g != w {
			return fmt.Sprintf("Vals[%d] bits %#x, want %#x", k, g, w)
		}
	}
	return ""
}

// srvpackMethods is every SRVPack method of the model space.
func srvpackMethods() []Method {
	var out []Method
	for _, method := range methodsUnderTest() {
		if method.Kind != CSR && method.Kind != SegCSRKind {
			out = append(out, method)
		}
	}
	return out
}

// explicitZeros has stored zeros where padding would also read Val 0,
// ColIdx 0: at column 0, and at column 5, the most frequent column and so
// CFS rank 0. One of them is -0, whose bits differ from padding's +0. Row 3
// is empty.
func explicitZeros() *matrix.CSR {
	coo := matrix.NewCOO(9, 7)
	for r := int32(0); r < 9; r++ {
		if r == 3 {
			continue
		}
		coo.Add(r, 5, float64(r))
		if r%2 == 0 {
			coo.Add(r, 0, 0)
		}
		if r%3 == 1 {
			coo.Add(r, 6, float64(r)+0.5)
		}
	}
	m := coo.ToCSR()
	m.Vals[m.RowPtr[4]] = math.Copysign(0, -1) // row 4 col 0
	return m
}

// emptyRows interleaves empty rows, leading and trailing ones included,
// with rows of different lengths.
func emptyRows() *matrix.CSR {
	coo := matrix.NewCOO(13, 11)
	for _, r := range []int32{1, 2, 5, 9, 10} {
		for c := int32(0); c <= r; c++ {
			coo.Add(r, (c*3+r)%11, float64(r)+float64(c)/8)
		}
	}
	return coo.ToCSR()
}

// TestSRVPackInverse requires (*SRVPack).CSR to give back the matrix the
// pack was built from, bit for bit, for every SRVPack method of the model
// space: on every warm-spmv pool family, a wide and a tall RMAT, a matrix
// with empty rows, and one whose explicit zeros look like padding.
func TestSRVPackInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ms := map[string]*matrix.CSR{
		"empty-rows":     emptyRows(),
		"explicit-zeros": explicitZeros(),
	}
	wide := gen.RMAT(rng, 11, 8, gen.MedSkew)
	wide = &matrix.CSR{Rows: 1500, Cols: wide.Cols, RowPtr: wide.RowPtr[:1501],
		ColIdx: wide.ColIdx[:wide.RowPtr[1500]], Vals: wide.Vals[:wide.RowPtr[1500]]}
	ms["rmat-wide"], ms["rmat-tall"] = wide, wide.Transpose()
	scale := 12
	if testing.Short() {
		scale = 10
	}
	for _, fam := range warmFamilies(scale) {
		ms[fam.name] = fam.m(rng)
	}
	twoSeg := 0
	for name, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, method := range srvpackMethods() {
			p := Build(m, method, 0).(*SRVPack)
			if len(p.Segments) == 2 {
				twoSeg++
			}
			if err := csrBitsDiffer(m, p.CSR()); err != "" {
				t.Errorf("%s %s: %s", name, method, err)
			}
		}
	}
	if twoSeg == 0 {
		t.Error("no LAV build split into two segments; the two-segment inverse went untested")
	}
}

// FuzzSRVPackInverse checks the inverse on random small matrices for every
// SRVPack kind and chunk sizes C = c%40+1.
func FuzzSRVPackInverse(f *testing.F) {
	for i, c := range []uint8{1, 2, 3, 4, 5, 8, 16, 32} {
		f.Add(uint8(40), uint8(30), int64(i), uint8(30), c-1, uint8(i), uint8(i))
	}
	f.Add(uint8(59), uint8(7), int64(99), uint8(99), uint8(33), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, density, c, kind, param uint8) {
		m := randomSpec{Rows: rows, Cols: cols, Seed: seed, Density: density}.build()
		method := Method{C: int(c%40) + 1, Sched: Dyn}
		switch kind % 5 {
		case 0:
			method.Kind = SELLPACK
		case 1:
			method.Kind, method.Sigma = SellCSigma, method.C*(1+int(param%4))
		case 2:
			method.Kind = SellCR
		case 3:
			method.Kind = LAV1Seg
		case 4:
			method.Kind, method.T = LAV, 0.5+float64(param%10)*0.05
		}
		if err := csrBitsDiffer(m, Build(m, method, 0).(*SRVPack).CSR()); err != "" {
			t.Fatalf("%s on %dx%d: %s", method, m.Rows, m.Cols, err)
		}
	})
}
