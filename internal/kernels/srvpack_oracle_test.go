package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// oracleSpMVParallel is the original SRVPack execution loop, kept as the
// bit-identity oracle for SpMVParallel: y is zeroed, every segment's chunks
// are units of their own, and each lane walks its chunk at stride C with one
// accumulator. It is slow, but the bits of its y are the specification the
// lane-inner kernel must reproduce exactly.
func oracleSpMVParallel(p *SRVPack, y, x []float64, workers int) {
	if len(x) != p.Cols || len(y) != p.Rows {
		panic(fmt.Sprintf("kernels: SpMV dims y[%d]=A[%dx%d]*x[%d]", len(y), p.Rows, p.Cols, len(x)))
	}
	xs := x
	if p.ColPerm != nil {
		xs = matrix.GatherVec(nil, x, p.ColPerm)
	}
	for i := range y {
		y[i] = 0
	}
	if workers == 1 {
		for si := range p.Segments {
			seg := &p.Segments[si]
			for k := 0; k < seg.Chunks(); k++ {
				oracleChunkSpMV(seg, k, p.C, y, xs)
			}
		}
		return
	}
	var seg *Segment
	body := func(k int) { oracleChunkSpMV(seg, k, p.C, y, xs) }
	for si := range p.Segments {
		seg = &p.Segments[si]
		parallelUnits(workers, seg.Chunks(), p.Method.Sched, body)
	}
}

// oracleChunkSpMV accumulates chunk k's contribution into y, lane-outer.
func oracleChunkSpMV(s *Segment, k, c int, y, xs []float64) {
	if len(s.ColIdx) > 0 && int(s.maxIdx) >= len(xs) {
		panic(fmt.Sprintf("kernels: packed column index %d out of range for x[%d]", s.maxIdx, len(xs)))
	}
	lo, hi := s.ChunkOff[k], s.ChunkOff[k+1]
	base := k * c
	lanes := len(s.RowOrder) - base
	if lanes > c {
		lanes = c
	}
	for l := 0; l < lanes; l++ {
		var acc float64
		for pos := lo; pos < hi; pos++ {
			idx := pos*int64(c) + int64(l)
			acc += s.Vals[idx] * xs[s.ColIdx[idx]]
		}
		y[s.RowOrder[base+l]] += acc
	}
}

// bitsDiffer reports the first row whose bits differ, or -1.
func bitsDiffer(want, got []float64) int {
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return i
		}
	}
	return -1
}

// oracleVector is a test x with mixed signs, a -0 and an exactly
// cancelling pair, so sums that reach zero test the sign of the result.
func oracleVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if n > 0 {
		x[0] = math.Copysign(0, -1)
	}
	if n > 2 {
		x[1], x[2] = 1, -1
	}
	return x
}

// checkOracleBits runs one method on m at every worker count and rowBlock
// and fails unless y is bit-identical to the oracle's.
func checkOracleBits(t *testing.T, m *matrix.CSR, method Method, x []float64, rowBlocks []int) {
	t.Helper()
	want := make([]float64, m.Rows)
	got := make([]float64, m.Rows)
	for _, rb := range rowBlocks {
		p := Build(m, method, rb).(*SRVPack)
		oracleSpMVParallel(p, want, x, 1)
		for _, workers := range []int{1, 2, 3} {
			for i := range got {
				got[i] = math.NaN() // a row the kernel skips cannot pass
			}
			p.SpMVParallel(got, x, workers)
			if i := bitsDiffer(want, got); i >= 0 {
				t.Fatalf("%s rowBlock=%d workers=%d: y[%d] = %v (%#x), oracle %v (%#x)",
					method, rb, workers, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestSRVPackMatchesOracleBits holds the lane-inner kernel to the original
// lane-outer loop bit for bit, -0 included, for every SRVPack method of the
// model space on generated matrices whose row counts leave partial chunks
// and span many scheduling blocks.
func TestSRVPackMatchesOracleBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ms := map[string]*matrix.CSR{
		"rmat":     gen.RMATRows(rng, 1500, 8, gen.MedSkew),
		"rgg":      gen.RGG(rng, 1021, 6),
		"banded":   gen.Banded(rng, 999, []int{-7, -1, 0, 1, 7}),
		"powerlaw": gen.PowerLawRows(rng, 1203, 2.0, 200),
	}
	// Every third row empty, including the first and the last.
	coo := matrix.NewCOO(901, 700)
	for i := 1; i < 900; i++ {
		if i%3 == 0 {
			continue
		}
		for k := 0; k < 1+i%11; k++ {
			coo.Add(int32(i), int32(rng.Intn(700)), rng.NormFloat64())
		}
	}
	ms["empty-rows"] = coo.ToCSR()

	for name, m := range ms {
		x := oracleVector(rng, m.Cols)
		for _, method := range methodsUnderTest() {
			if method.Kind == CSR || method.Kind == SegCSRKind {
				continue
			}
			t.Run(name+"/"+method.String(), func(t *testing.T) {
				checkOracleBits(t, m, method, x, []int{0, 1, 37})
			})
		}
	}
}

// FuzzSRVPackDifferential compares the kernel with the oracle bit for bit
// on random small matrices: every SRVPack kind, chunk sizes C = c%40+1 well
// past the unrolled 4 and 8 and past the generic loop's lane group, random
// scheduling blocks, and 1 to 3 workers.
func FuzzSRVPackDifferential(f *testing.F) {
	for i, c := range []uint8{1, 2, 3, 4, 5, 8, 16, 32} {
		f.Add(uint8(40), uint8(30), int64(i), uint8(30), c-1, uint8(i), uint8(i), uint8(3*i))
	}
	f.Add(uint8(59), uint8(7), int64(99), uint8(99), uint8(33), uint8(4), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, density, c, kind, sched, rowBlock uint8) {
		m := randomSpec{Rows: rows, Cols: cols, Seed: seed, Density: density}.build()
		method := Method{C: int(c%40) + 1, Sched: Dyn}
		switch kind % 5 {
		case 0:
			method.Kind = SELLPACK
			if sched%2 == 1 {
				method.Sched = StCont
			}
		case 1:
			method.Kind, method.Sigma = SellCSigma, method.C*(1+int(sched%4))
			if sched%2 == 1 {
				method.Sched = StCont
			}
		case 2:
			method.Kind = SellCR
		case 3:
			method.Kind = LAV1Seg
		case 4:
			method.Kind, method.T = LAV, 0.5+float64(sched%10)*0.05
		}
		rng := rand.New(rand.NewSource(seed))
		x := oracleVector(rng, m.Cols)
		if seed%4 == 0 && m.Cols > 3 {
			x[3] = math.Inf(1) // 0 * Inf in the padding must match too
		}
		checkOracleBits(t, m, method, x, []int{int(rowBlock % 70)})
	})
}
