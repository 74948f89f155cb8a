package matrix

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// fuzzSeeds is the seed corpus for the MatrixMarket parser: valid files in
// every supported value-type/symmetry combination plus the malformed shapes
// the parser must reject cleanly. The seeds also run as plain subtests under
// go test (TestFuzzSeedsParse), so CI exercises them without -fuzz.
var fuzzSeeds = []string{
	// Valid: real general with comments and blank lines.
	"%%MatrixMarket matrix coordinate real general\n% comment\n\n2 3 3\n1 1 1.5\n1 3 -2\n2 2 4e-3\n",
	// Valid: symmetric with a diagonal entry (not mirrored twice).
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 1 -1\n3 2 0.5\n",
	// Valid: skew-symmetric (diagonal-free mirror with negation).
	"%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 1\n3 1 7\n",
	// Valid: pattern entries take value 1.
	"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
	// Valid: integer values parse as floats.
	"%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 -3\n",
	// Valid: duplicate coordinates are summed by canonicalization.
	"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n1 1 2\n2 2 5\n",
	// Valid: empty matrix.
	"%%MatrixMarket matrix coordinate real general\n4 4 0\n",
	// Invalid: bad header.
	"%%NotMatrixMarket nonsense\n1 1 0\n",
	// Invalid: array format unsupported.
	"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
	// Invalid: truncated entry list.
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
	// Invalid: index out of declared range.
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
	// Invalid: unparsable value.
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 zebra\n",
	// Invalid: negative size line.
	"%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
	// Invalid: rectangular symmetric (mirror would land out of range).
	"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 5\n",
	// Invalid: header dimensions exceed the fuzz read limits.
	"%%MatrixMarket matrix coordinate real general\n999999999 1 0\n",
}

// fuzzLimits bounds allocations so mutated headers cannot OOM the harness.
var fuzzLimits = ReadLimits{MaxRows: 1 << 12, MaxCols: 1 << 12, MaxNNZ: 1 << 14}

// checkParsed asserts the invariants every successfully parsed matrix must
// satisfy, whatever the input bytes were.
func checkParsed(t *testing.T, m *CSR) {
	t.Helper()
	if m == nil {
		t.Fatal("nil matrix with nil error")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("parsed matrix fails Validate: %v", err)
	}
	if m.Rows > fuzzLimits.MaxRows || m.Cols > fuzzLimits.MaxCols {
		t.Fatalf("parsed %dx%d exceeds read limits", m.Rows, m.Cols)
	}
}

// roundtrip writes m and parses it back, asserting the result is
// structurally identical with bit-equal (or both-NaN) values.
func roundtrip(t *testing.T, m *CSR) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatalf("writing parsed matrix: %v", err)
	}
	// The write-out of a symmetric input is the expanded general form and
	// may hold up to 2x the entries, so reread without the fuzz caps.
	m2, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("rereading written matrix: %v\n%s", err, buf.String())
	}
	if m2.Rows != m.Rows || m2.Cols != m.Cols || m2.NNZ() != m.NNZ() {
		t.Fatalf("roundtrip shape drift: %dx%d/%d -> %dx%d/%d",
			m.Rows, m.Cols, m.NNZ(), m2.Rows, m2.Cols, m2.NNZ())
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != m2.RowPtr[i] {
			t.Fatalf("roundtrip RowPtr drift at %d", i)
		}
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != m2.ColIdx[i] {
			t.Fatalf("roundtrip ColIdx drift at %d", i)
		}
		a, b := m.Vals[i], m2.Vals[i]
		// Bit-exact on purpose: %.17g output must reparse to the same
		// float64 (NaN compares unequal to itself, hence the special case).
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("roundtrip value drift at %d: %v -> %v", i, a, b)
		}
	}
}

// FuzzReadMatrixMarket asserts the parser never panics, that every accepted
// input yields a valid CSR within the read limits, and that write/reread is
// lossless.
func FuzzReadMatrixMarket(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("oversized input")
		}
		m, err := ReadMatrixMarketLimited(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return // rejected cleanly
		}
		checkParsed(t, m)
		roundtrip(t, m)
	})
}

// FuzzReadMatrixMarketEntries fuzzes the entry-list tail behind a fixed
// valid header, steering mutations at index/value parsing instead of the
// header grammar.
func FuzzReadMatrixMarketEntries(f *testing.F) {
	f.Add("1 1 1.5\n2 3 -2e4\n3 2 0.25\n")
	f.Add("1 1 1\n1 1 2\n1 1 3\n")
	f.Add("3 3 nan\n1 2 1\n2 1 1\n")
	f.Fuzz(func(t *testing.T, entries string) {
		if len(entries) > 1<<16 {
			t.Skip("oversized input")
		}
		input := "%%MatrixMarket matrix coordinate real general\n4 4 3\n" + entries
		m, err := ReadMatrixMarketLimited(strings.NewReader(input), fuzzLimits)
		if err != nil {
			return
		}
		checkParsed(t, m)
		roundtrip(t, m)
	})
}

// TestFuzzSeedsParse runs the full seed corpus as ordinary subtests so the
// seeds are exercised by plain go test (and CI) without the fuzz engine.
func TestFuzzSeedsParse(t *testing.T) {
	for _, s := range fuzzSeeds {
		m, err := ReadMatrixMarketLimited(strings.NewReader(s), fuzzLimits)
		if err != nil {
			continue // invalid seeds are rejected cleanly by construction
		}
		checkParsed(t, m)
		roundtrip(t, m)
	}
}

// TestReadLimits pins the defensive-parsing behavior the fuzz harness
// relies on.
func TestReadLimits(t *testing.T) {
	big := "%%MatrixMarket matrix coordinate real general\n10000000 1 0\n"
	if _, err := ReadMatrixMarketLimited(strings.NewReader(big), fuzzLimits); err == nil {
		t.Fatal("header beyond MaxRows must be rejected")
	}
	if m, err := ReadMatrixMarket(strings.NewReader(big)); err != nil || m.Rows != 10000000 {
		t.Fatalf("default limits must admit large-but-addressable sizes: %v", err)
	}
	rect := "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 5\n"
	if _, err := ReadMatrixMarket(strings.NewReader(rect)); err == nil {
		t.Fatal("rectangular symmetric matrix must be rejected, not mirrored out of range")
	}
}

// differentialSeeds steer the differential fuzzers at the corners where the
// fast tokenizers hand over to the strings/strconv path: non-ASCII
// whitespace, signs, leading zeros, index tokens too long for the fast
// integer parsers, and the single-pass line scanner's edges.
var differentialSeeds = []string{
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -2\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n % comment\n+1 +2 +3\n2 1 -4e-1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n-1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 2\n0001 003 7\n000000000000000000002 2 1\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 1\n1000000000000000001 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0 \n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1 é\n3\t3\r\n",
	"%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 3\n2 1 nan\n3 1 -0\n3 2 inf\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 3\n2 2 1\n1 1 1e16\n2 2 1e16\n",
	// The single-pass line scanner's edges (scannerEdgeSeeds, with sizes
	// inside fuzzLimits).
	"%%MatrixMarket matrix coordinate real general\n3 4000 5\n1 1234567 1\n2 12345678 2\n3 123456789 3\n1 0000001 4\n003 0003999 5\n",
	"%%MatrixMarket matrix coordinate real general\n9 9 9\n1 1 1\n2 2 2\n3 3 3\n4 4 4\n5 5 5\n6 6 6\n7 7 7\n8 8 8\n9 9 9",
	"%%MatrixMarket matrix coordinate real general\n4 4 8\n1 1 +3\n1 2 -0\n1 3 .5\n1 4 5.\n2 1 -.5\n2 2 +5.\n2 3 -1\n+2 -4 1\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 6\n1 1 123456789012345\n1 2 1234567890123456\n1 3 12345678901234567\n" +
		"2 1 0.0000000000000000000001\n2 2 0.00000000000000000000001\n3 3 1.0000000000000000000000\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 6\n1 1 1e5\n1 2 inf\n1 3 nan\n2 1 -0.5\n2 2 .\n3 3 -\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 6\n1\t1\t1\n1  2  2\n1 3 3\r\n2 1 4 \n 2 2 5\n3 3\t6\r\n",
	"%%MatrixMarket matrix coordinate pattern general\n3 3000 4\n1 2999\n2 12345678\n03 0000001\n2 3\r\n",
	"%%MatrixMarket matrix coordinate real symmetric\n1000 1000 4\n1 1 1\n1000 1 -2.5\n0001000 999 1e1\n7 3 123456789012345\n",
}

// sameParse asserts two readers produced the same matrix: identical
// structure, and bit-equal (or both-NaN) values unless dups says some
// coordinate repeated, whose sum order the oracle leaves unspecified.
func sameParse(t *testing.T, got, want *CSR, dups bool) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("shape %dx%d/%d, oracle %dx%d/%d",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, oracle %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("ColIdx[%d] = %d, oracle %d", k, got.ColIdx[k], want.ColIdx[k])
		}
		a, b := got.Vals[k], want.Vals[k]
		if !dups && math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("Vals[%d] = %v, oracle %v", k, a, b)
		}
	}
}

// hasDuplicates reports whether any coordinate of c repeats.
func hasDuplicates(c *COO) bool {
	seen := make(map[[2]int32]bool, len(c.Entries))
	for _, e := range c.Entries {
		k := [2]int32{e.Row, e.Col}
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// FuzzReadMatrixMarketDifferential runs the reader against readOracle, the
// original strings/strconv reader: they must agree on accept/reject, and
// on accept produce the same CSR. The reader must also give the identical
// result when the stream arrives one byte per read, so every line crosses
// a buffer boundary.
func FuzzReadMatrixMarketDifferential(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	for _, s := range differentialSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("oversized input")
		}
		got, err := ReadMatrixMarketLimited(bytes.NewReader(data), fuzzLimits)
		coo, oracleErr := readOracleCOO(bytes.NewReader(data), fuzzLimits)
		if (err == nil) != (oracleErr == nil) {
			t.Fatalf("reader err %v, oracle err %v", err, oracleErr)
		}
		if err != nil {
			return
		}
		sameParse(t, got, oracleToCSR(coo), hasDuplicates(coo))
		trickled, err := ReadMatrixMarketLimited(iotest.OneByteReader(bytes.NewReader(data)), fuzzLimits)
		if err != nil {
			t.Fatalf("one byte per read: %v", err)
		}
		sameParse(t, trickled, got, false)
	})
}
