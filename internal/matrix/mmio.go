package matrix

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"wise/internal/resilience"
)

// MatrixMarket I/O. The coordinate real/integer/pattern general/symmetric
// subset is supported — enough to interchange with SuiteSparse-format files.

// WriteMatrixMarket writes the matrix in MatrixMarket coordinate real
// general format (1-based indices).
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, cols[k]+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadLimits bounds what the MatrixMarket reader accepts. The header of an
// untrusted stream declares dimensions and entry counts that drive
// allocations, so defensive callers (and the fuzz harness) cap them.
type ReadLimits struct {
	MaxRows int
	MaxCols int
	MaxNNZ  int
}

// DefaultReadLimits admits anything addressable by the int32 index space
// CSR uses; only the entry count stays effectively unbounded.
func DefaultReadLimits() ReadLimits {
	return ReadLimits{MaxRows: math.MaxInt32, MaxCols: math.MaxInt32, MaxNNZ: math.MaxInt}
}

// maxEntryPrealloc caps the entry capacity reserved from the declared nnz
// before any entry has been read — a tiny header must not reserve gigabytes.
const maxEntryPrealloc = 1 << 16

// maxLineBytes caps one line of a MatrixMarket stream, terminator excluded:
// a line of this many bytes or more is rejected instead of buffered.
const maxLineBytes = 1 << 20

// readBufferBytes is the reader's buffer. A longer line is gathered into a
// separate slice, up to maxLineBytes.
const readBufferBytes = 64 << 10

// maxFastIndexBytes is the longest index token the fast entry parser
// converts itself; every such token fits an int64. Longer ones (leading
// zeros, out-of-range values) take the strconv.Atoi path.
const maxFastIndexBytes = 18

var errLineTooLong = errors.New("matrix: MatrixMarket line exceeds 1 MiB")

// ReadMatrixMarket parses a MatrixMarket coordinate file into CSR form.
// Symmetric and skew-symmetric matrices are expanded; pattern matrices get
// value 1 for every entry. Entries whose coordinates repeat are summed in
// file order, a mirrored entry taking the place of the line it came from;
// sums that come to zero stay stored. Lines of 1 MiB or more are rejected,
// and nothing after the declared number of entries is read.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	return ReadMatrixMarketLimited(r, DefaultReadLimits())
}

// ReadMatrixMarketLimited is ReadMatrixMarket with explicit header limits,
// for parsing untrusted input with bounded memory.
func ReadMatrixMarketLimited(r io.Reader, lim ReadLimits) (*CSR, error) {
	lr := lineReader{br: bufio.NewReaderSize(r, readBufferBytes)}
	first, err := lr.next()
	if err == io.EOF {
		return nil, fmt.Errorf("matrix: empty MatrixMarket stream")
	}
	if err != nil {
		return nil, err
	}
	text := string(first)
	header := strings.Fields(strings.ToLower(text))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("matrix: bad MatrixMarket header %q", text)
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("matrix: only coordinate format supported, got %q", header[2])
	}
	valueType := header[3]
	symmetry := "general"
	if len(header) >= 5 {
		symmetry = header[4]
	}
	switch valueType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("matrix: unsupported value type %q", valueType)
	}
	mirror := symmetry != "general" // store (j,i) beside every off-diagonal (i,j)
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("matrix: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		b, err := lr.next()
		if err == io.EOF {
			return nil, fmt.Errorf("matrix: missing size line")
		}
		if err != nil {
			return nil, err
		}
		line := strings.TrimSpace(string(b))
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("matrix: bad size line %q: %w", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, ErrDimension
	}
	if rows > lim.MaxRows || cols > lim.MaxCols || nnz > lim.MaxNNZ {
		return nil, fmt.Errorf("%w: %dx%d with %d entries exceeds read limits %dx%d/%d",
			ErrDimension, rows, cols, nnz, lim.MaxRows, lim.MaxCols, lim.MaxNNZ)
	}
	// Entry coordinates are stored as int32 (COO entries, CSR ColIdx), so a
	// caller-supplied limit above the int32 index space must not let the
	// int32 conversions below truncate silently on a huge-but-admitted file.
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %dx%d exceeds the int32 index space", ErrDimension, rows, cols)
	}
	// The MatrixMarket spec defines symmetry only for square matrices; the
	// mirrored entry of a rectangular "symmetric" file could land outside
	// the matrix.
	if mirror && rows != cols {
		return nil, fmt.Errorf("%w: %s matrix must be square, got %dx%d",
			ErrDimension, symmetry, rows, cols)
	}

	// The declared count bounds how far the triplet arrays grow: a general
	// file fills them exactly, a symmetric one at most twice over.
	limit := nnz
	if mirror {
		limit = nnz * 2
		if nnz > math.MaxInt/2 {
			limit = math.MaxInt
		}
	}
	t := newTriplets(min(nnz, maxEntryPrealloc), limit)
	pattern := valueType == "pattern"
	read := 0
	for read < nnz {
		b, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		i, j, val, st := parseEntryFast(b, pattern)
		if st == entrySlow {
			if i, j, val, st, err = parseEntrySlow(string(b), pattern); err != nil {
				return nil, err
			}
		}
		if st == entrySkip {
			continue
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrIndexRange, i, j, rows, cols)
		}
		t.add(int32(i-1), int32(j-1), val)
		if mirror && i != j {
			if symmetry == "skew-symmetric" {
				val = -val
			}
			t.add(int32(j-1), int32(i-1), val)
		}
		read++
	}
	if read != nnz {
		return nil, fmt.Errorf("matrix: expected %d entries, got %d", nnz, read)
	}
	return buildCSR(rows, cols, t.row, t.col, t.val), nil
}

// lineReader splits a stream into lines with bufio.Reader.ReadSlice,
// gathering a line longer than the buffer into long.
type lineReader struct {
	br   *bufio.Reader
	long []byte
}

// next returns the next line without its "\n" terminator or a "\r" before
// it, io.EOF at the end of the stream, or errLineTooLong for a line of
// maxLineBytes bytes or more. The line aliases the reader's buffers until
// the next call.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull && len(lr.long) < maxLineBytes {
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		if err == bufio.ErrBufferFull {
			return nil, errLineTooLong
		}
		line = lr.long
	}
	switch {
	case err == nil:
		line = line[:len(line)-1]
	case err != io.EOF:
		return nil, err
	case len(line) == 0:
		return nil, io.EOF
	}
	if len(line) >= maxLineBytes {
		return nil, errLineTooLong
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// entryStatus is what parsing one entry line found.
type entryStatus int

const (
	entryOK   entryStatus = iota // an entry
	entrySkip                    // a blank or comment line
	entrySlow                    // beyond the fast parser; reparse with parseEntrySlow
)

// parseEntryFast parses one entry line without allocating. It answers
// entryOK or entrySkip only where parseEntrySlow would read the line the
// same way: ASCII-whitespace-separated fields, index tokens of at most
// maxFastIndexBytes sign and digit bytes, and a value token that
// strconv.ParseFloat accepts. A byte >= 0x80 inside a field fails the
// index or value parse, so every such line, like every malformed one, is
// answered entrySlow.
func parseEntryFast(line []byte, pattern bool) (i, j int, val float64, st entryStatus) {
	p := skipBlank(line, 0)
	if p == len(line) || line[p] == '%' {
		return 0, 0, 0, entrySkip
	}
	var ok bool
	if i, p, ok = parseIndex(line, p); !ok {
		return 0, 0, 0, entrySlow
	}
	if j, p, ok = parseIndex(line, skipBlank(line, p)); !ok {
		return 0, 0, 0, entrySlow
	}
	if pattern {
		return i, j, 1, entryOK
	}
	p = skipBlank(line, p)
	end := p
	for end < len(line) && !isSpace(line[end]) {
		end++
	}
	// The conversion does not allocate: strconv copies the string only to
	// report an error.
	val, err := strconv.ParseFloat(string(line[p:end]), 64)
	if err != nil {
		return 0, 0, 0, entrySlow
	}
	return i, j, val, entryOK
}

// parseEntrySlow parses an entry line with the unicode-aware strings and
// strconv calls; it defines what the reader accepts.
func parseEntrySlow(raw string, pattern bool) (i, j int, val float64, st entryStatus, err error) {
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, "%") {
		return 0, 0, 0, entrySkip, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, 0, 0, fmt.Errorf("matrix: bad entry line %q", line)
	}
	if i, err = strconv.Atoi(fields[0]); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("matrix: bad row index %q: %w", fields[0], err)
	}
	if j, err = strconv.Atoi(fields[1]); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("matrix: bad col index %q: %w", fields[1], err)
	}
	val = 1
	if !pattern {
		if len(fields) < 3 {
			return 0, 0, 0, 0, fmt.Errorf("matrix: missing value in %q", line)
		}
		if val, err = strconv.ParseFloat(fields[2], 64); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("matrix: bad value %q: %w", fields[2], err)
		}
	}
	return i, j, val, entryOK, nil
}

// isSpace reports whether c is ASCII whitespace as unicode.IsSpace sees it:
// '\t', '\n', '\v', '\f', '\r' or ' '.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// skipBlank returns the index of the first byte of line at or after p that
// is not whitespace.
func skipBlank(line []byte, p int) int {
	for p < len(line) && isSpace(line[p]) {
		p++
	}
	return p
}

// parseIndex is strconv.Atoi for the token starting at line[p] when that
// token is an optional sign and decimal digits, at most maxFastIndexBytes
// bytes long, ended by whitespace or the end of the line. It returns the
// value and the index just past the token.
func parseIndex(line []byte, p int) (int, int, bool) {
	start := p
	neg := false
	if p < len(line) && (line[p] == '-' || line[p] == '+') {
		neg = line[p] == '-'
		p++
	}
	digits := p
	n := 0
	for ; p < len(line) && line[p]-'0' <= 9; p++ {
		n = n*10 + int(line[p]-'0')
	}
	if p == digits || p-start > maxFastIndexBytes || p < len(line) && !isSpace(line[p]) {
		return 0, p, false
	}
	if neg {
		n = -n
	}
	return n, p, true
}

// WriteFile writes the matrix to path in MatrixMarket format, atomically:
// readers never observe a partially written matrix.
func WriteFile(path string, m *CSR) error {
	f, err := resilience.CreateAtomic(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := WriteMatrixMarket(f, m); err != nil {
		return err
	}
	return f.Commit()
}

// ReadFile reads a MatrixMarket file from path.
func ReadFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrixMarket(f)
}
