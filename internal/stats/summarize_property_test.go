package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSummarizeMatchesSortedBitForBit holds the Gini and p-ratio Summarize
// reads off its counting histogram to giniSorted and pRatioSorted of a
// sorted copy, bit for bit, and Min and Max to the extremes of the counts.
// The cases cover random counts, degenerate shapes, one hub, and counts
// whose largest value sits on either side of histMax, where Summarize
// falls back to sorting.
func TestSummarizeMatchesSortedBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	equal := make([]int64, 1000)
	for i := range equal {
		equal[i] = 3
	}
	cases := map[string][]int64{
		"single":          {7},
		"single zero":     {0},
		"all zero":        make([]int64, 100),
		"all equal":       equal,
		"one hub":         append(make([]int64, 999), 1<<40),
		"hub and noise":   append(randomCounts(rng, 500, 8), 1<<20),
		"two values":      {0, 5, 0, 5, 5, 0, 0},
		"small histogram": {1023, 0, 1, 1023, 512},
		"past the stack":  {1024, 3, 2048, 0},
	}
	for n := range 60 {
		length := 1 + rng.Intn(5000)
		cases[fmt.Sprintf("random %d", n)] = randomCounts(rng, length, 1+rng.Int63n(int64(6*length+2048)))
	}
	// At 2^18 counts the rank-weighted sum passes 2^53, so it rounds, and
	// only the same additions in the same order give the same bits.
	for _, length := range []int{1, 2, 17, 64, 4096, 8192, 1 << 18} {
		// The largest count on the histogram side of the threshold, and one
		// past it.
		for _, top := range []int64{histMax(length), histMax(length) + 1} {
			c := randomCounts(rng, length, top)
			c[rng.Intn(length)] = top
			cases[fmt.Sprintf("len %d max %d", length, top)] = c
		}
	}
	for name, counts := range cases {
		orig := slices.Clone(counts)
		s := Summarize(counts)
		if !slices.Equal(counts, orig) {
			t.Fatalf("%s: Summarize modified its input", name)
		}
		sorted := slices.Clone(counts)
		slices.Sort(sorted)
		if got, want := s.Gini, giniSorted(sorted); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Gini %v (%#x), sorted %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := s.PRatio, pRatioSorted(sorted); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: PRatio %v (%#x), sorted %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if s.Min != float64(sorted[0]) || s.Max != float64(sorted[len(sorted)-1]) {
			t.Errorf("%s: Min/Max %v/%v, want %v/%v", name, s.Min, s.Max, sorted[0], sorted[len(sorted)-1])
		}
	}
}

// randomCounts returns n counts in [0, top): a third of them zero, the rest
// uniform or, for every fourth, skewed towards small values.
func randomCounts(rng *rand.Rand, n int, top int64) []int64 {
	c := make([]int64, n)
	for i := range c {
		switch rng.Intn(6) {
		case 0, 1:
		case 2:
			c[i] = int64(float64(top) * math.Pow(rng.Float64(), 4))
		default:
			c[i] = rng.Int63n(top)
		}
	}
	return c
}
