package kernels

import (
	"math"

	"wise/internal/matrix"
	"wise/internal/obs"
)

// useSIMD selects the vector kernels of simd_amd64.s for CSR rows and for
// SRVPack chunks of C=4 and C=8. It is fixed at init from CPUID and XGETBV;
// tests clear it to run the Go loops, which every other host takes and
// which stay the oracle the vector kernels are held to bit for bit.
var useSIMD = hasAVX2

var simdGauge = obs.NewGauge("kernels.simd")

func init() {
	if useSIMD {
		simdGauge.Set(1)
	}
}

// Path names the kernels that serve this process: "avx2" for the vector
// kernels, "go" for the portable loops.
func Path() string {
	if useSIMD {
		return "avx2"
	}
	return "go"
}

// csrInRange reports whether every row of m addresses its ColIdx and Vals
// and every column index of those rows addresses an x of m.Cols entries:
// RowPtr has Rows+1 non-decreasing entries from a non-negative start to at
// most len(ColIdx) and len(Vals), and each ColIdx in between lies in
// [0, Cols). The vector CSR kernel reads without bounds checks on this
// proof.
func csrInRange(m *matrix.CSR) bool {
	if m.Rows < 0 || len(m.RowPtr) != m.Rows+1 {
		return false
	}
	prev := m.RowPtr[0]
	if prev < 0 {
		return false
	}
	for _, p := range m.RowPtr[1:] {
		if p < prev {
			return false
		}
		prev = p
	}
	if prev > int64(len(m.ColIdx)) || prev > int64(len(m.Vals)) {
		return false
	}
	// The largest index read as unsigned, so a negative one counts as too
	// large; four running maxima keep the loop off one dependency chain.
	cols := m.ColIdx[m.RowPtr[0]:prev]
	var hi0, hi1, hi2, hi3 uint32
	for ; len(cols) >= 4; cols = cols[4:] {
		hi0 = max(hi0, uint32(cols[0]))
		hi1 = max(hi1, uint32(cols[1]))
		hi2 = max(hi2, uint32(cols[2]))
		hi3 = max(hi3, uint32(cols[3]))
	}
	for _, c := range cols {
		hi0 = max(hi0, uint32(c))
	}
	hi := max(hi0, hi1, hi2, hi3)
	return prev == m.RowPtr[0] || (hi <= math.MaxInt32 && int(hi) < m.Cols)
}
