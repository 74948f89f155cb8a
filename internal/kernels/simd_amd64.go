package kernels

// hasAVX2 reports whether this host runs the AVX2 kernels of
// simd_amd64.s: the CPU has AVX and AVX2, and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 enabling the XMM
// and YMM state).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xgetbv0()&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

//go:noescape
func rowSpanAVX2(y, x []float64, rowPtr []int64, colIdx []int32, vals []float64)

//go:noescape
func span4AVX2(y, xs, vals []float64, cols []int32, chunkOff []int64, rowOrder []int32, add bool) (done int)

//go:noescape
func span8AVX2(y, xs, vals []float64, cols []int32, chunkOff []int64, rowOrder []int32, add bool) (done int)
