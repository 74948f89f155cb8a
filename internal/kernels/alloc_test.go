package kernels

import (
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
)

// TestSerialSpMVZeroAllocs pins the steady-state allocation behavior of the
// serial SpMV paths: after a warm-up call (which may size per-pack scratch),
// repeated products must not touch the heap. This is what the hotalloc
// analyzer enforces statically; the runtime guard catches anything the
// analyzer cannot see, such as closures escaping through parallelUnits or
// fmt boxing on a panic-free path.
func TestSerialSpMVZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := gen.Banded(rng, 256, []int{-4, -1, 0, 1, 4})
	// LAV splits this one into two segments, so its zero-and-accumulate
	// path is pinned beside the single-segment assigning one.
	skewed := gen.RMAT(rng, 8, 8, gen.LowLoc)

	type allocCase struct {
		name string
		m    *matrix.CSR
		f    Format
	}
	sellC4 := Method{Kind: SELLPACK, C: 4, Sched: Dyn}
	cases := []allocCase{
		{"CSR", m, BuildCSRFormat(m, Dyn, 8)},
		{"SELLPACK", m, BuildSRVPack(m, Method{Kind: SELLPACK, C: 8, Sched: Dyn})},
		{"SegCSR", m, BuildSegCSR(m, 64, Dyn, 8)},
		{sellC4.String(), m, BuildSRVPack(m, sellC4)},
	}
	for _, c := range []int{4, 8} {
		for _, method := range []Method{
			{Kind: SellCR, C: c, Sched: Dyn},
			{Kind: SellCSigma, C: c, Sigma: 4 * c, Sched: StCont},
		} {
			cases = append(cases, allocCase{method.String(), m, BuildSRVPack(m, method)})
		}
		lav := BuildSRVPack(skewed, Method{Kind: LAV, C: c, T: 0.7, Sched: Dyn})
		if len(lav.Segments) != 2 {
			t.Fatalf("LAV c=%d built %d segments, want 2", c, len(lav.Segments))
		}
		cases = append(cases, allocCase{lav.Method.String(), skewed, lav})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := make([]float64, tc.m.Cols)
			for i := range x {
				x[i] = float64(i%13) - 6
			}
			y := make([]float64, tc.m.Rows)
			tc.f.SpMV(y, x) // warm-up: scratch buffers reach steady state
			allocs := testing.AllocsPerRun(100, func() {
				tc.f.SpMV(y, x)
			})
			if allocs != 0 {
				t.Errorf("%s serial SpMV allocates %.1f objects/op in steady state, want 0", tc.name, allocs)
			}
		})
	}
}

// TestSerialSpMVZeroAllocsPermuted covers the LAV gather path: with a column
// permutation the pack gathers x into a reused scratch vector, which must not
// reallocate once warmed.
func TestSerialSpMVZeroAllocsPermuted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := gen.RMAT(rng, 8, 8, gen.LowLoc)
	p := BuildSRVPack(m, Method{Kind: LAV, C: 8, T: 0.7, Sched: Dyn})
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i % 7)
	}
	y := make([]float64, m.Rows)
	p.SpMV(y, x)
	allocs := testing.AllocsPerRun(100, func() {
		p.SpMV(y, x)
	})
	if allocs != 0 {
		t.Errorf("LAV serial SpMV allocates %.1f objects/op in steady state, want 0", allocs)
	}
}
