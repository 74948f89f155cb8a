//go:build !race

// Under the race detector sync.Pool drops a quarter of what it is given, so
// the reader's pooled blocks and triplets are allocated again at random and
// a byte count measures the pool, not the reader; race builds leave the
// pin out.

package matrix

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// TestStructureReadAllocatesHalf pins what a structure read saves: on the
// ordered general 2^13-row body of TestReadAllocsIndependentOfNNZ it
// allocates at most half the bytes of the full read, which keeps a float64
// beside every int32 column.
func TestStructureReadAllocatesHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomCSR(t, rng, 1<<13, 1<<13, 12.0/(1<<13))
	var body bytes.Buffer
	if err := WriteMatrixMarket(&body, m); err != nil {
		t.Fatal(err)
	}
	raw := body.Bytes()
	allocated := func(read func(io.Reader, ReadLimits) (*CSR, error)) uint64 {
		// One read first, so the block and triplet pools are filled.
		if _, err := read(bytes.NewReader(raw), DefaultReadLimits()); err != nil {
			t.Fatal(err)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := read(bytes.NewReader(raw), DefaultReadLimits()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	full, structure := allocated(ReadMatrixMarketLimited), allocated(ReadStructure)
	if 2*structure > full {
		t.Errorf("%d-nonzero body: structure read allocates %d bytes, full read %d; want at most half",
			m.NNZ(), structure, full)
	}
}
