package matrix

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// blockSizes are the tiny block sizes the differential tests cut streams
// into, so that lines, CRLFs and headers straddle block boundaries and every
// multi-block path of the entry reader runs on small inputs.
var blockSizes = []int{1, 7, 64}

// blockWorkers are the parsing goroutine counts tried at each block size:
// inline, and more workers than a small host has cores.
var blockWorkers = []int{1, 3}

// checkBlocksAgainstOracle reads data at every tiny block size and worker
// count with checkBlockRead.
func checkBlocksAgainstOracle(t *testing.T, data []byte, lim ReadLimits) {
	t.Helper()
	for _, size := range blockSizes {
		for _, workers := range blockWorkers {
			checkBlockRead(t, data, lim, size, workers)
		}
	}
}

// checkBlockRead reads data in blocks of size bytes with the given number
// of workers and holds the result to readOracle: the same accept/reject,
// the same matrix on accept, and on reject the message of the reader at
// its default block size and one worker, which is the oracle's own message
// except for the line cap, where the oracle reports bufio.Scanner's error.
// The structure read of data at the same size and workers must give that
// message too, or on accept the same RowPtr and ColIdx with nil Vals.
func checkBlockRead(t *testing.T, data []byte, lim ReadLimits, size, workers int) {
	t.Helper()
	coo, oracleErr := readOracleCOO(bytes.NewReader(data), lim)
	want, wantErr := readMatrixMarket(bytes.NewReader(data), lim, blockBytes, 1, true)
	if (wantErr == nil) != (oracleErr == nil) {
		t.Fatalf("reader err %v, oracle err %v", wantErr, oracleErr)
	}
	if wantErr != nil && !errors.Is(wantErr, errLineTooLong) && wantErr.Error() != oracleErr.Error() {
		t.Fatalf("reader err %q, oracle err %q", wantErr, oracleErr)
	}
	if wantErr == nil {
		sameParse(t, want, oracleToCSR(coo), hasDuplicates(coo))
	}
	got, err := readMatrixMarket(bytes.NewReader(data), lim, size, workers, true)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("block %d, %d workers: err %v, want %v", size, workers, err, wantErr)
	}
	if err == nil {
		sameParse(t, got, want, false)
	}
	pat, err := readMatrixMarket(bytes.NewReader(data), lim, size, workers, false)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("structure read, block %d, %d workers: err %v, want %v", size, workers, err, wantErr)
	}
	if err == nil {
		sameStructure(t, pat, want)
	}
}

// sameStructure asserts that got, a structure read, has the sparsity
// pattern of the full read want and no values.
func sameStructure(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.Vals != nil {
		t.Fatalf("structure read kept %d values", len(got.Vals))
	}
	if got.Rows != want.Rows || got.Cols != want.Cols ||
		!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("structure read %dx%d/%d differs from the full read %dx%d/%d",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
}

// entryBody writes m as a MatrixMarket body with the given header and a
// line terminator of eol.
func entryBody(t *testing.T, m *CSR, header, eol string) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s%s%d %d %d%s", header, eol, m.Rows, m.Cols, m.NNZ(), eol)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			fmt.Fprintf(&b, "%d %d %s%s", i+1, cols[k]+1, strconv.FormatFloat(vals[k], 'g', -1, 64), eol)
		}
	}
	return b.Bytes()
}

// lowerTriangle is the lower triangle of m, diagonal included, as a
// symmetric file stores it.
func lowerTriangle(m *CSR) *CSR {
	c := NewCOO(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if int(j) <= i {
				c.Add(int32(i), j, vals[k])
			}
		}
	}
	return c.ToCSR()
}

// replaceLastEntry swaps the last line of body (which ends in eol) for line.
func replaceLastEntry(body []byte, line, eol string) []byte {
	trimmed := bytes.TrimSuffix(body, []byte(eol))
	cut := bytes.LastIndex(trimmed, []byte(eol)) + len(eol)
	return append(append(append([]byte(nil), trimmed[:cut]...), line...), eol...)
}

// TestBlockReaderMatchesOracle drives the entry reader through multi-block
// streams at tiny block sizes and several worker counts against readOracle.
func TestBlockReaderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randomCSR(t, rng, 40, 40, 0.15)
	const general = "%%MatrixMarket matrix coordinate real general"
	lf := entryBody(t, m, general, "\n")
	crlf := entryBody(t, m, general, "\r\n")
	longLine := "%" + strings.Repeat("x", maxLineBytes)
	sym := lowerTriangle(m)

	cases := map[string][]byte{
		"lf":                        lf,
		"crlf":                      crlf,
		"no final newline":          bytes.TrimSuffix(lf, []byte("\n")),
		"bad value in last block":   replaceLastEntry(crlf, "40 40 zebra", "\r\n"),
		"bad index in last block":   replaceLastEntry(lf, "4x 1 1", "\n"),
		"out of range in last line": replaceLastEntry(lf, "41 1 1", "\n"),
		"missing value last":        replaceLastEntry(lf, "3 3", "\n"),
		"junk after entries":        append(append([]byte(nil), lf...), "junk\n1 1 zebra\n99 99 99\n"...),
		"long line after entries":   append(append([]byte(nil), lf...), longLine+"\n1 1 1\n"...),
		"long line before the last": replaceLastEntry(lf, longLine, "\n"),
		"short entry list":          bytes.TrimSuffix(replaceLastEntry(lf, "", "\n"), []byte("\n")),
		"long header comment": []byte(general + "\n%" + strings.Repeat("c", 300) + "\n\n% more\n2 2 3\n" +
			"% between\n\n1 1 1.5\r\n \t2 2 -0.25\n1 1 2.5\n"),
		"comments and blanks between entries": []byte(general + "\n3 3 3\n% a\n\n1 1 1\n%%\n   \n2 2 2\n\t\n3 3 3\n"),
		"no entries, junk after":              []byte(general + "\n3 3 0\nnot an entry\n"),
		"symmetric":                           entryBody(t, sym, "%%MatrixMarket matrix coordinate real symmetric", "\n"),
		"skew-symmetric": entryBody(t, lowerTriangle(randomCSR(t, rng, 30, 30, 0.1)),
			"%%MatrixMarket matrix coordinate real skew-symmetric", "\r\n"),
		"pattern symmetric":             []byte("%%MatrixMarket matrix coordinate pattern symmetric\n5 5 6\n1 1\n2 1\n3 2\r\n4 3\n5 4\n5 5\njunk"),
		"pattern general":               []byte("%%MatrixMarket matrix coordinate pattern general\n3 4 4\n1 4\n2 2\n3 1\n1 4\n"),
		"duplicates across blocks":      []byte(general + "\n2 2 6\n1 1 1e16\n2 2 1\n1 1 1\n2 2 1e16\n1 1 -1e16\n2 2 -1e16\n"),
		"symmetric truncated mid-count": []byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n2 1 1\n3 1 2\n3 3 3\n"),
		"symmetric cut after count":     []byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1\n3 3 3\n3 2 zebra\n"),
		"order breaks in last line":     replaceLastEntry(lf, "1 1 0.5", "\n"),
	}
	for name, data := range scannerEdgeSeeds {
		cases["scanner edge: "+name] = []byte(data)
	}
	for name, data := range structureSeeds {
		cases["unconverted value: "+name] = []byte(data)
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			checkBlocksAgainstOracle(t, data, DefaultReadLimits())
		})
	}
}

// scannerEdgeSeeds aim at the boundaries of the single-pass line scanner
// in (*entryBlock).parse and its hand-over to parseEntryFast and
// parseEntrySlow: index runs of 7, 8 and 9 digits and leading zeros, lines
// near a block's end and a last line without "\n", signs, values at the
// exact converter's digit limits, exponents and special values, other
// whitespace, and pattern and symmetric headers. They seed the
// differential fuzzers too.
var scannerEdgeSeeds = map[string]string{
	"long column indices": "%%MatrixMarket matrix coordinate real general\n3 999999999 7\n" +
		"1 1234567 1\n2 12345678 2\n3 123456789 3\n1 0000001 4\n2 00000000000000000002 5\n003 999999999 6\n01 0000000000000001234567 7\n",
	"seven-digit rows":         "%%MatrixMarket matrix coordinate real general\n1234567 2 3\n1234567 1 1\n0001234 2 2\n1000000 1 -3\n",
	"eight-digit row":          "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n12345678 1 1\n",
	"nine-digit column":        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n1 123456789 1\n",
	"short lines, no final lf": "%%MatrixMarket matrix coordinate real general\n9 9 9\n1 1 1\n2 2 2\n3 3 3\n4 4 4\n5 5 5\n6 6 6\n7 7 7\n8 8 8\n9 9 9",
	"signed indices":           "%%MatrixMarket matrix coordinate real general\n3 3 3\n+1 1 1\n2 +2 2\n3 3 3\n",
	"negative index":           "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n1 -2 1\n",
	"signed and bare values": "%%MatrixMarket matrix coordinate real general\n4 4 8\n1 1 +3\n1 2 -0\n1 3 .5\n1 4 5.\n" +
		"2 1 -.5\n2 2 +5.\n2 3 -0.0\n2 4 007\n",
	"lone sign or point": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 .\n",
	"significant digits": "%%MatrixMarket matrix coordinate real general\n3 3 6\n1 1 123456789012345\n1 2 1234567890123456\n" +
		"1 3 12345678901234567\n2 1 -0.000123456789012345\n2 2 1.23456789012345678\n3 3 99999999999999999999999\n",
	"fraction digits": "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 0.0000000000000000000001\n" +
		"1 2 0.00000000000000000000001\n2 2 1.0000000000000000000000\n",
	"exponents and specials": "%%MatrixMarket matrix coordinate real general\n3 3 7\n1 1 1e5\n1 2 1E-3\n1 3 -2.5e+2\n" +
		"2 1 inf\n2 2 -Inf\n2 3 nan\n3 3 0x1p-2\n",
	"tabs, double spaces, crlf": "%%MatrixMarket matrix coordinate real general\n3 3 6\n1\t1\t1\n1  2  2\n1 3 3\r\n" +
		"2 1 4 \n 2 2 5\n3 3\t6\r\n",
	"pattern edges":   "%%MatrixMarket matrix coordinate pattern general\n3 1234567 5\n1 1234567\n2 12345678\n03 0000001\n1 2 \n2 3\r\n",
	"pattern missing": "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n2\n",
	"symmetric edges": "%%MatrixMarket matrix coordinate real symmetric\n1234567 1234567 5\n1 1 1\n1234567 1 -2.5\n" +
		"1234567 1234567 .5\n0001000 999 1e1\n7 3 123456789012345\n",
	"skew-symmetric edges": "%%MatrixMarket matrix coordinate integer skew-symmetric\n9 9 3\n2 1 -0\n9 1 +7\n9 8 12345678901234567\n",
}

// structureSeeds aim at the rule by which a structure read leaves a value
// token unconverted (scanDecimal's converts): decimals too long to convert exactly,
// integer parts of 308 digits, which always convert, and of 309, which
// convert below math.MaxFloat64 and fail with strconv's range error above
// it, underflow to 0, and the tokens that are not plain decimals or have
// no digit. They seed FuzzBlockReaderDifferential too.
var structureSeeds = map[string]string{
	"16 to 19 significant digits": "%%MatrixMarket matrix coordinate real general\n4 4 6\n1 1 1234567890123456\n" +
		"1 2 -12345678901234567\n2 2 0.123456789012345678\n3 1 +1234567890.123456789\n3 3 -.1234567890123456789\n4 4 100000000000000000.\n",
	"308 integer digits": "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 " + strings.Repeat("9", 308) +
		"\n2 1 -" + strings.Repeat("9", 308) + ".75\n2 2 1\n",
	"309 integer digits in range": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1" + strings.Repeat("0", 308) +
		"\n2 2 " + strings.Repeat("0", 309) + "7\n",
	"309 integer digits overflow": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 " + strings.Repeat("9", 309) + "\n",
	"underflow":                   "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0." + strings.Repeat("0", 400) + "1\n2 2 -." + strings.Repeat("0", 330) + "5\n",
	"exponent and specials":       "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1e5\n2 2 inf\n3 3 nan\n3 1 12345678901234567e-3\n",
	"lone point":                  "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 12345678901234567\n2 2 .\n",
	"lone minus":                  "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 12345678901234567\n2 2 -\n",
	"signed point":                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 12345678901234567\n2 2 +.\n",
	"crlf":                        "%%MatrixMarket matrix coordinate real general\r\n3 3 3\r\n1 1 12345678901234567\r\n2 2 -0.12345678901234567\r\n3 3 " + strings.Repeat("9", 308) + "\r\n",
	"trailing blank":              "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 12345678901234567 \n2 2 12345678901234567\t\n",
}

// TestReadLongOrderedBody reads bodies of more than maxEntryPrealloc
// entries, whose CSR arrays are reserved only once half of the entries are
// in, against readOracle: one in row order throughout, and one whose order
// breaks in its last line, after the reservation.
func TestReadLongOrderedBody(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randomCSR(t, rng, 1<<12, 1<<12, float64(maxEntryPrealloc+5000)/(1<<24))
	if m.NNZ() <= maxEntryPrealloc {
		t.Fatalf("%d nonzeros, want more than %d", m.NNZ(), maxEntryPrealloc)
	}
	body := entryBody(t, m, "%%MatrixMarket matrix coordinate real general", "\n")
	for name, data := range map[string][]byte{
		"ordered":           body,
		"order breaks last": replaceLastEntry(body, "1 1 0.25", "\n"),
	} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range blockWorkers {
				checkBlockRead(t, data, DefaultReadLimits(), blockBytes, workers)
			}
		})
	}
}

// TestBlockReaderReadErrors pins the rule for a stream that fails: a read
// error after the declared entries is ignored, one before them wins, and so
// does a stream that stops making progress.
func TestBlockReaderReadErrors(t *testing.T) {
	errBroken := errors.New("broken stream")
	body := "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1\n2 2 2\n3 3 3\n"
	for _, size := range append([]int{blockBytes}, blockSizes...) {
		for _, workers := range blockWorkers {
			for _, values := range []bool{true, false} {
				r := io.MultiReader(strings.NewReader(body), iotest.ErrReader(errBroken))
				if m, err := readMatrixMarket(r, DefaultReadLimits(), size, workers, values); err != nil || m.NNZ() != 3 {
					t.Errorf("block %d, %d workers, values %v: error after the entries: %v", size, workers, values, err)
				}
				// The unfinished line before the error does not count.
				r = io.MultiReader(strings.NewReader(body[:len(body)-1]), iotest.ErrReader(errBroken))
				if _, err := readMatrixMarket(r, DefaultReadLimits(), size, workers, values); !errors.Is(err, errBroken) {
					t.Errorf("block %d, %d workers, values %v: error before the last newline: %v, want %v", size, workers, values, err, errBroken)
				}
				r = io.MultiReader(strings.NewReader(body[:60]), emptyReader{})
				if _, err := readMatrixMarket(r, DefaultReadLimits(), size, workers, values); !errors.Is(err, io.ErrNoProgress) {
					t.Errorf("block %d, %d workers, values %v: stalled stream: %v, want %v", size, workers, values, err, io.ErrNoProgress)
				}
			}
		}
	}
}

// emptyReader returns no bytes and no error, forever.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// FuzzBlockReaderDifferential is FuzzReadMatrixMarketDifferential at a
// fuzzed block size of 1 to 96 bytes and 1 to 4 workers: however the
// stream is cut into blocks, the entry reader must agree with readOracle
// and give the error message it gives at its default block size, and so
// must the structure read. The seed corpora run at every tiny block size
// and worker count.
func FuzzBlockReaderDifferential(f *testing.F) {
	seeds := append(append([]string(nil), fuzzSeeds...), differentialSeeds...)
	for _, s := range structureSeeds {
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		for _, size := range blockSizes {
			for _, workers := range blockWorkers {
				f.Add([]byte(s), uint8(size-1), uint8(workers-1))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, size, workers uint8) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		checkBlockRead(t, data, fuzzLimits, 1+int(size%96), 1+int(workers%4))
	})
}

// Expectations of scanDecimal's exact step for one token.
const (
	never  = iota // the token is not in the converter's form
	maybe         // 16 to 19 significant digits: exact or declined
	always        // at most 15 significant digits: always exact
)

// exactClass is the expectation for a token of sig significant digits and
// frac digits after the point, in the form scanDecimal reads.
func exactClass(sig, frac int) int {
	switch {
	case frac > 22:
		return never
	case sig <= 15:
		return always
	case sig <= 19:
		return maybe
	}
	return never
}

// checkExactDecimal holds scanDecimal on tok to the expectation want, and
// an exact value to strconv.ParseFloat bit for bit. It reports whether
// the exact step converted tok. The structure read's scan, without the
// long step, must convert only the tokens of at most 15 digits.
func checkExactDecimal(t *testing.T, tok []byte, want int) bool {
	t.Helper()
	got, end, exact, _ := scanDecimal(tok, 0, true)
	ok := exact && end == len(tok)
	if _, end, short, _ := scanDecimal(tok, 0, false); (short && end == len(tok)) != (want == always) {
		t.Fatalf("scanDecimal(%q) without the long step: exact = %v, want %v", tok, short, want == always)
	}
	if want == never && ok || want == always && !ok {
		t.Fatalf("scanDecimal(%q) exact = %v, want %v", tok, ok, want == always)
	}
	if !ok {
		return false
	}
	ref, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("scanDecimal(%q) = %v (%#x), strconv %v (%#x, %v)",
			tok, got, math.Float64bits(got), ref, math.Float64bits(ref), err)
	}
	return true
}

// randomDecimal returns a token of an optional sign, up to three leading
// zeros and digits drawn from minDigits to maxDigits of them, with the
// point anywhere or absent, and its counts of significant and fraction
// digits.
func randomDecimal(rng *rand.Rand, minDigits, maxDigits int) (b []byte, sig, frac int) {
	switch rng.Intn(3) {
	case 1:
		b = append(b, '-')
	case 2:
		b = append(b, '+')
	}
	b = append(b, strings.Repeat("0", rng.Intn(4))...)
	digits := minDigits + rng.Intn(maxDigits-minDigits+1)
	dot := rng.Intn(digits + 2) // digits+1: no point
	for d := 0; d < digits; d++ {
		if d == dot {
			b = append(b, '.')
		}
		c := byte('0' + rng.Intn(10))
		if sig == 0 && rng.Intn(3) == 0 {
			c = '0'
		}
		if c != '0' || sig > 0 {
			sig++
		}
		if dot <= d {
			frac++
		}
		b = append(b, c)
	}
	if dot == digits {
		b = append(b, '.')
	}
	return b, sig, frac
}

// TestExactDecimalMatchesStrconv holds scanDecimal's exact value step to
// strconv.ParseFloat bit for bit on the tokens it converts, and checks
// which tokens it converts: every token of at most 15 significant digits,
// at most 22 fraction digits and no exponent; a token of 16 to 19 such
// digits unless the Eisel-Lemire step declines it; nothing else.
func TestExactDecimalMatchesStrconv(t *testing.T) {
	for _, tc := range []struct {
		tok  string
		want int
	}{
		{"0", always}, {"-0", always}, {"+0", always}, {"-0.0", always}, {"1", always}, {"-1", always}, {"4", always},
		{"5.", always}, {".5", always}, {"-.5", always}, {"+5.", always}, {"007", always}, {"-000.000", always},
		{"0.1", always}, {"0.3", always}, {"-2.675", always}, {"1.5e3", never}, {"1E3", never},
		{"123456789012345", always}, {"1234567890123456", maybe},
		{"999999999999999", always}, {"9999999999999999", maybe},
		{"0.000123456789012345", always}, {"0.0001234567890123456", maybe},
		{"12345678.9012345", always}, {"12345678.90123456", maybe},
		{"0.0000000000000000000001", always}, {"0.00000000000000000000001", never},
		{"0.0000000123456789012345", always}, {"0.00000000123456789012345", never},
		{"1.0000000000000000000000", never}, {"100000000000000", always},
		{"0000000000000000000000000000001", always},
		{"0.1234567890123456789", maybe}, {"-9999999999999999999", maybe}, {"9007199254740993", maybe},
		{"0.2071067811865475", maybe}, {"-0.70710678118654757", maybe}, {"1.000000000000000000", maybe},
		{"12345678901234567890", never}, {"18446744073709551615", never}, {"0.12345678901234567890", never},
		{"", never}, {".", never}, {"-", never}, {"+", never}, {"-.", never}, {"1.2.3", never},
		{"0x10", never}, {"1_0", never}, {"inf", never}, {"NaN", never}, {"--1", never}, {"1-", never},
	} {
		checkExactDecimal(t, []byte(tc.tok), tc.want)
	}

	// Tokens of 16 to 19 significant digits, the long step's form: nearly
	// all must convert. The step declines a value that lies exactly halfway
	// between two float64s, as every odd integer between 2^53 and 2^54
	// does, and such values are common among these tokens.
	rng := rand.New(rand.NewSource(9))
	long, converted := 0, 0
	for n := 0; n < 200000; n++ {
		b, sig, frac := randomDecimal(rng, 16, 19)
		if sig < 16 || frac > 22 {
			continue
		}
		long++
		if checkExactDecimal(t, b, maybe) {
			converted++
		}
	}
	if converted < long*97/100 {
		t.Fatalf("only %d of %d long tokens took the exact path", converted, long)
	}

	// Random tokens around the limits: 1 to 21 digits.
	accepted := 0
	for n := 0; n < 200000; n++ {
		b, sig, frac := randomDecimal(rng, 1, 21)
		if checkExactDecimal(t, b, exactClass(sig, frac)) {
			accepted++
		}
	}
	if accepted < 50000 {
		t.Fatalf("only %d of the random tokens took the exact path", accepted)
	}
}

// TestNegPowersOfTenTable derives every row of the long step's table with
// math/big: 10^-q truncated to a 128-bit mantissa whose top bit is set.
func TestNegPowersOfTenTable(t *testing.T) {
	for q, row := range negPowersOfTen {
		den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(q)), nil)
		m := new(big.Int).Lsh(big.NewInt(1), uint(127+den.BitLen()))
		m.Quo(m, den)
		if m.BitLen() > 128 {
			m.Rsh(m, 1)
		}
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(m, 64).Uint64()
		if row != [2]uint64{lo, hi} {
			t.Errorf("1e-%d: table {%#x, %#x}, math/big {%#x, %#x}", q, row[0], row[1], lo, hi)
		}
	}
	if len(negPowersOfTen) != len(float64pow10) {
		t.Errorf("%d table rows for %d fraction lengths", len(negPowersOfTen), len(float64pow10))
	}
}

// TestDecimalConverts checks scanDecimal's converts, by which a structure
// read skips strconv.ParseFloat, against ParseFloat: a token it reports
// sure to convert must convert without error.
func TestDecimalConverts(t *testing.T) {
	for _, tc := range []struct {
		tok      string
		converts bool
	}{
		{"1", true}, {"-1.5", true}, {"+.5", true}, {"5.", true}, {"12345678901234567", true},
		{"-.1234567890123456789", true}, {"0." + strings.Repeat("0", 400) + "1", true},
		{strings.Repeat("9", 308), true}, {"-" + strings.Repeat("9", 308) + ".75", true},
		{strings.Repeat("9", 309), false}, {"1" + strings.Repeat("0", 308), false},
		{"", false}, {".", false}, {"-", false}, {"+.", false},
	} {
		_, end, _, converts := scanDecimal([]byte(tc.tok), 0, false)
		if end != len(tc.tok) || converts != tc.converts {
			t.Errorf("scanDecimal(%q) end = %d, converts = %v, want %d, %v", tc.tok, end, converts, len(tc.tok), tc.converts)
		}
		if _, err := strconv.ParseFloat(tc.tok, 64); converts && err != nil {
			t.Errorf("scanDecimal(%q) converts, strconv: %v", tc.tok, err)
		}
	}
}
