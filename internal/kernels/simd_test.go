package kernels

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// TestSIMDDetectionMatchesCPUInfo holds the CPUID/XGETBV detection to the
// kernel's own account of the CPU: the vector kernels serve exactly when
// /proc/cpuinfo lists avx2, which Linux reports only when the CPU has it
// and the OS saves its registers. A detection bug would otherwise leave
// every host on the Go loops with every test still green.
func TestSIMDDetectionMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("/proc/cpuinfo flags are read on linux/amd64")
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(data), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				listed = listed || f == "avx2"
			}
			break
		}
	}
	if hasAVX2 != listed {
		t.Fatalf("detected AVX2 = %v, /proc/cpuinfo lists avx2 = %v", hasAVX2, listed)
	}
	if useSIMD != hasAVX2 || (Path() == "avx2") != hasAVX2 || (simdGauge.Value() == 1) != hasAVX2 {
		t.Fatalf("useSIMD = %v, Path() = %q, kernels.simd = %v with AVX2 = %v", useSIMD, Path(), simdGauge.Value(), hasAVX2)
	}
}

// specialValues are the IEEE corners the vector kernels must treat as the
// Go loops do: signed zeros, infinities, NaN, subnormals and values whose
// products or sums overflow.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.5e-320, 1e-310, math.MaxFloat64, -1.7e308, 1e308, 1e154,
}

// specialValue draws a normal value, or with probability share/256 one of
// specialValues.
func specialValue(rng *rand.Rand, share uint8) float64 {
	if rng.Intn(256) < int(share) {
		return specialValues[rng.Intn(len(specialValues))]
	}
	return rng.NormFloat64()
}

// specialCSR builds a rows x cols matrix whose rows hold 0 to 9 nonzeros,
// so every tail of the four-wide CSR loop occurs, with values from
// specialValue.
func specialCSR(rng *rand.Rand, rows, cols int, share uint8) *matrix.CSR {
	m := &matrix.CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	for i := 0; i < rows; i++ {
		n := min(rng.Intn(10), cols)
		picked := rng.Perm(cols)[:n]
		seen := make([]bool, cols)
		for _, c := range picked {
			seen[c] = true
		}
		for c := range seen {
			if seen[c] {
				m.ColIdx = append(m.ColIdx, int32(c))
				m.Vals = append(m.Vals, specialValue(rng, share))
			}
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// sameBits reports whether a and b have the same bits, counting any two
// NaNs as equal: which NaN payload a sum of two NaNs carries depends on
// the operand order, which Go's compiler picks freely lane by lane, so
// payloads are not part of what the kernels promise.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSIMDBits builds method on m with the vector kernels on and runs it
// on the Go loops and on the vector kernels at 1 and 2 workers, failing
// unless every y entry has the same bits. It reports whether the build
// was a two-segment pack.
func checkSIMDBits(t *testing.T, m *matrix.CSR, method Method, x []float64, rowBlock int) (twoSegments bool) {
	t.Helper()
	defer func(v bool) { useSIMD = v }(useSIMD)
	useSIMD = true
	f := Build(m, method, rowBlock)
	if cf, ok := f.(*CSRFormat); ok && cf.inRange != m {
		t.Fatalf("%s: the build did not prove %dx%d in range, so the vector kernel never runs", method, m.Rows, m.Cols)
	}
	want := make([]float64, m.Rows)
	got := make([]float64, m.Rows)
	for _, workers := range []int{1, 2} {
		useSIMD = false
		f.SpMVParallel(want, x, workers)
		useSIMD = true
		for i := range got {
			got[i] = 42 // a row the kernel skips cannot pass
		}
		f.SpMVParallel(got, x, workers)
		for i := range want {
			if !sameBits(want[i], got[i]) {
				t.Fatalf("%s workers=%d: y[%d] = %v (%#x) on vector lanes, %v (%#x) on the Go loop",
					method, workers, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	p, ok := f.(*SRVPack)
	return ok && len(p.Segments) == 2
}

// TestSIMDMatchesGoBits holds the vector kernels to the Go loops bit for
// bit on every method of the model space: the warm pool's families at
// 2^10 rows, matrices of IEEE corner values, and a skewed matrix that LAV
// splits into two segments, so its zero-and-add mode runs too.
func TestSIMDMatchesGoBits(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this host: only the Go loops run")
	}
	rng := rand.New(rand.NewSource(5))
	ms := map[string]*matrix.CSR{
		"specials":      specialCSR(rng, 203, 97, 64),
		"specials-wide": specialCSR(rng, 61, 400, 16),
		"skewed":        gen.RMAT(rng, 8, 8, gen.LowLoc),
	}
	for _, fam := range gen.WarmFamilies(1 << 10) {
		ms[fam.Name] = fam.New(rng)
	}
	twoSegments := 0
	for name, m := range ms {
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = specialValue(rng, 8)
		}
		for _, method := range methodsUnderTest() {
			if checkSIMDBits(t, m, method, x, 0) {
				twoSegments++
			}
		}
		t.Logf("%s: %dx%d, %d nonzeros", name, m.Rows, m.Cols, m.NNZ())
	}
	if twoSegments == 0 {
		t.Fatal("no LAV build had two segments: the add mode went untested")
	}
}

// FuzzSIMDDifferential compares the vector kernels with the Go loops bit
// for bit on random matrices of 0-9 nonzeros per row whose values and x
// include IEEE corner values, for every method of the model space at 1 and
// 2 workers and a random scheduling block.
func FuzzSIMDDifferential(f *testing.F) {
	f.Add(uint8(40), uint8(30), int64(1), uint8(32), uint8(0))
	f.Add(uint8(7), uint8(3), int64(2), uint8(255), uint8(1))
	f.Add(uint8(200), uint8(9), int64(3), uint8(0), uint8(13))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, share, rowBlock uint8) {
		if !hasAVX2 {
			t.Skip("no AVX2 on this host: only the Go loops run")
		}
		rng := rand.New(rand.NewSource(seed))
		m := specialCSR(rng, int(rows), int(cols)+1, share)
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = specialValue(rng, share/4)
		}
		for _, method := range methodsUnderTest() {
			checkSIMDBits(t, m, method, x, int(rowBlock%70))
		}
	})
}

// TestSIMDRefusesBrokenStructure corrupts a built format where the vector
// kernels read without per-element checks. Each product must still end in
// an ordinary Go panic, from the Go loop the kernel hands the bad chunk or
// row to, never a read or write outside the arrays.
func TestSIMDRefusesBrokenStructure(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this host: only the Go loops run")
	}
	rng := rand.New(rand.NewSource(9))
	m := gen.Banded(rng, 64, []int{-2, 0, 2})
	x, y := matrix.Ones(m.Cols), make([]float64, m.Rows)
	pack := func(c int) *SRVPack {
		return BuildSRVPack(m, Method{Kind: SellCR, C: c, Sched: Dyn})
	}
	cases := map[string]func() Format{
		"column past Cols": func() Format {
			bad := m.Clone()
			bad.ColIdx[5] = int32(bad.Cols)
			return BuildCSRFormat(bad, Dyn, 0)
		},
		"row pointer past nnz": func() Format {
			bad := m.Clone()
			bad.RowPtr[bad.Rows] += 1 << 20
			return BuildCSRFormat(bad, Dyn, 0)
		},
		"C=4 row past y": func() Format {
			p := pack(4)
			p.Segments[0].RowOrder[9] = int32(m.Rows)
			return p
		},
		"C=8 negative row": func() Format {
			p := pack(8)
			p.Segments[0].RowOrder[17] = -1
			return p
		},
		"C=4 chunk offset past vals": func() Format {
			p := pack(4)
			s := &p.Segments[0]
			s.ChunkOff[len(s.ChunkOff)-1] += 2
			return p
		},
		"C=8 chunk offsets run backwards": func() Format {
			p := pack(8)
			s := &p.Segments[0]
			s.ChunkOff[2] = s.ChunkOff[3] + 1
			return p
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			f := build()
			defer func() {
				if recover() == nil {
					t.Fatal("SpMV on a broken format did not panic")
				}
			}()
			f.SpMV(y, x)
		})
	}
}
