package matrix

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

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

// blockBytes is the size a block of the stream is filled to before it is
// cut after its last newline. A line longer than that grows its block, up
// to maxLineBytes.
const blockBytes = 64 << 10

// maxFastIndexBytes is the longest index token the fast entry parser
// converts itself; every such token fits an int64. Longer ones (leading
// zeros, out-of-range values) take the strconv.Atoi path.
const maxFastIndexBytes = 18

var errLineTooLong = errors.New("matrix: MatrixMarket line exceeds 1 MiB")

// ReadMatrixMarket parses a MatrixMarket coordinate file into CSR form.
// Symmetric and skew-symmetric matrices are expanded; pattern matrices get
// value 1 for every entry. Entries whose coordinates repeat are summed in
// file order, a mirrored entry taking the place of the line it came from;
// sums that come to zero stay stored. Lines of 1 MiB or more are rejected.
//
// The entry lines are read in blocks of about 64 KiB and parsed by up to
// GOMAXPROCS goroutines at once. Whatever follows the declared number of
// entries is ignored, bad lines and read errors included. The reader reads
// past the last declared entry by at most the GOMAXPROCS+1 blocks it keeps
// in flight (one block at GOMAXPROCS=1), each about 64 KiB unless one
// longer line, of under 1 MiB, fills it.
//
// A caller that only inspects the sparsity pattern reads with
// ReadStructure, which checks the values the same way but keeps none.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	return ReadMatrixMarketLimited(r, DefaultReadLimits())
}

// ReadMatrixMarketLimited is ReadMatrixMarket with explicit header limits,
// for parsing untrusted input with bounded memory.
func ReadMatrixMarketLimited(r io.Reader, lim ReadLimits) (*CSR, error) {
	return readMatrixMarket(r, lim, blockBytes, runtime.GOMAXPROCS(0), true)
}

// ReadStructure is ReadMatrixMarketLimited for a caller that needs only the
// sparsity pattern: it accepts and rejects exactly the same streams, with
// the same errors, and returns the same RowPtr and ColIdx, but Vals is nil.
// Every value token is still checked, but one that cannot fail to convert
// is not converted.
func ReadStructure(r io.Reader, lim ReadLimits) (*CSR, error) {
	return readMatrixMarket(r, lim, blockBytes, runtime.GOMAXPROCS(0), false)
}

// readMatrixMarket is ReadMatrixMarketLimited, or with values false
// ReadStructure, with the block size, at most maxLineBytes, and the number
// of parsing goroutines as parameters.
func readMatrixMarket(r io.Reader, lim ReadLimits, size, workers int, values bool) (*CSR, error) {
	src := &blockSource{r: r, size: size}
	defer src.close()
	f, nnz, err := readHeader(src, lim)
	if err != nil {
		return nil, err
	}
	f.values = values
	return readEntries(src, f, nnz, workers)
}

// entryFormat is what the header says about the entry lines, and whether
// the reader keeps their values.
type entryFormat struct {
	rows, cols int
	pattern    bool // no value field; every entry is 1
	mirror     bool // store (j,i) beside every off-diagonal (i,j)
	skew       bool // the mirrored entry is negated
	// values is false for a structure read: values are checked, but a
	// token scanDecimal finds sure to convert is not converted, and the
	// merge keeps none.
	values bool
}

// readHeader reads the banner, the comments and the size line, one line at
// a time, and checks the declared sizes against lim.
func readHeader(src *blockSource, lim ReadLimits) (*entryFormat, int, error) {
	first, err := src.line()
	if err == io.EOF {
		return nil, 0, fmt.Errorf("matrix: empty MatrixMarket stream")
	}
	if err != nil {
		return nil, 0, err
	}
	text := string(first)
	header := strings.Fields(strings.ToLower(text))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, 0, fmt.Errorf("matrix: bad MatrixMarket header %q", text)
	}
	if header[2] != "coordinate" {
		return nil, 0, fmt.Errorf("matrix: only coordinate format supported, got %q", header[2])
	}
	valueType := header[3]
	symmetry := "general"
	if len(header) >= 5 {
		symmetry = header[4]
	}
	switch valueType {
	case "real", "integer", "pattern":
	default:
		return nil, 0, fmt.Errorf("matrix: unsupported value type %q", valueType)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, 0, fmt.Errorf("matrix: unsupported symmetry %q", symmetry)
	}
	f := &entryFormat{
		pattern: valueType == "pattern",
		mirror:  symmetry != "general",
		skew:    symmetry == "skew-symmetric",
	}

	// Skip comments, read the size line.
	var nnz int
	for {
		b, err := src.line()
		if err == io.EOF {
			return nil, 0, fmt.Errorf("matrix: missing size line")
		}
		if err != nil {
			return nil, 0, err
		}
		line := strings.TrimSpace(string(b))
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &f.rows, &f.cols, &nnz); err != nil {
			return nil, 0, fmt.Errorf("matrix: bad size line %q: %w", line, err)
		}
		break
	}
	rows, cols := f.rows, f.cols
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, 0, ErrDimension
	}
	if rows > lim.MaxRows || cols > lim.MaxCols || nnz > lim.MaxNNZ {
		return nil, 0, fmt.Errorf("%w: %dx%d with %d entries exceeds read limits %dx%d/%d",
			ErrDimension, rows, cols, nnz, lim.MaxRows, lim.MaxCols, lim.MaxNNZ)
	}
	// Entry coordinates are stored as int32 (COO entries, CSR ColIdx), so a
	// caller-supplied limit above the int32 index space must not let the
	// int32 conversions of entry coordinates truncate silently on a
	// huge-but-admitted file.
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: %dx%d exceeds the int32 index space", ErrDimension, rows, cols)
	}
	// The MatrixMarket spec defines symmetry only for square matrices; the
	// mirrored entry of a rectangular "symmetric" file could land outside
	// the matrix.
	if f.mirror && rows != cols {
		return nil, 0, fmt.Errorf("%w: %s matrix must be square, got %dx%d",
			ErrDimension, symmetry, rows, cols)
	}
	return f, nnz, nil
}

// readEntries reads the first nnz entries and assembles them into a CSR
// matrix. It keeps one block more in flight than there are workers, so a
// worker that finishes a block finds the next one queued: each is parsed
// whole into its own triplets by one of workers goroutines, and the blocks
// are merged in file order, so the first error in the file wins and
// nothing past the last declared entry counts. With one worker, or a
// stream that ends within its first block, every block is parsed inline,
// one at a time.
func readEntries(src *blockSource, f *entryFormat, nnz, workers int) (*CSR, error) {
	// A general file's triplets are its entries; a mirrored file's count
	// is known only once they are read.
	list := entryList{want: nnz, rows: f.rows, values: f.values}
	if f.mirror {
		list.want = 0
	}
	defer list.release()
	if nnz == 0 {
		return list.csr(f.rows, f.cols), nil
	}
	// The ring's slots keep their buffers for the whole read, so blocks
	// reuse them without a pool round trip each, and their triplets too
	// unless the list keeps them.
	depth := 1
	if workers > 1 {
		depth = workers + 1
	}
	ring := make([]entryBlock, depth)
	head, queued := 0, 0
	var jobs chan *entryBlock
	var wg sync.WaitGroup
	defer func() {
		for ; queued > 0; queued-- {
			ring[head].wait()
			head = (head + 1) % depth
		}
		if jobs != nil {
			close(jobs)
			wg.Wait()
		}
		for k := range ring {
			ring[k].release()
		}
	}()
	read := 0
	for {
		for queued < depth {
			b := &ring[(head+queued)%depth]
			if !src.fill(b) {
				break
			}
			queued++
			if jobs == nil && workers > 1 && src.err == nil {
				// Sized to the blocks in flight, so a send never blocks.
				jobs = make(chan *entryBlock, depth)
				for k := range ring {
					ring[k].done = make(chan struct{}, 1)
				}
				wg.Add(workers)
				for range workers {
					go func() {
						defer wg.Done()
						for b := range jobs {
							b.parse(f)
							b.done <- struct{}{}
						}
					}()
				}
			}
			if jobs == nil {
				b.parse(f)
			} else {
				b.pending = true
				jobs <- b
			}
		}
		if queued == 0 {
			break
		}
		b := &ring[head]
		head, queued = (head+1)%depth, queued-1
		b.wait()
		need := nnz - read
		last := b.entries >= need
		if last {
			k := need
			if f.mirror {
				k = b.t.tripletsOf(need)
			}
			b.t.truncate(k)
		}
		if list.add(b.t) {
			b.t = nil // the slot's next block takes new triplets
		}
		if last {
			return list.csr(f.rows, f.cols), nil
		}
		read += b.entries
		if b.err != nil {
			return nil, b.err
		}
	}
	if src.err != io.EOF {
		return nil, src.err
	}
	return nil, fmt.Errorf("matrix: expected %d entries, got %d", nnz, read)
}

// entryBlock is one slot of the entry reader's ring: a block of entry
// lines and what parsing it found.
type entryBlock struct {
	buf  *[]byte // pooled; the block's lines are (*buf)[from:]
	from int
	t    *blockTriplets // pooled; the block's entries, mirrors included
	// entries counts the entry lines before err, the block's first bad
	// line, if it has one; parsing stops there.
	entries int
	err     error
	done    chan struct{} // a worker's signal that it parsed the block
	pending bool          // the block went to a worker and done is unread
}

var (
	blockPool   = sync.Pool{New: func() any { b := make([]byte, 0, blockBytes); return &b }}
	tripletPool = sync.Pool{New: func() any { return new(blockTriplets) }}
)

// wait returns once a worker has parsed b, if one was given it.
func (b *entryBlock) wait() {
	if b.pending {
		<-b.done
		b.pending = false
	}
}

// release returns b's buffer and triplets to their pools.
func (b *entryBlock) release() {
	if b.buf != nil {
		releaseBlock(b.buf)
	}
	if b.t != nil {
		releaseTriplets(b.t)
	}
	b.buf, b.t = nil, nil
}

// releaseTriplets returns t to its pool, unless it grew past what a 64 KiB
// block of 10-byte lines needs.
func releaseTriplets(t *blockTriplets) {
	if cap(t.row) <= 2*(blockBytes/10+1) {
		tripletPool.Put(t)
	}
}

// parse reads the entry lines of b into its triplets, stopping at the first
// bad line or out-of-range index, and then summarizes them for the merge.
// The triplets are sized for entry lines of 10 bytes or more, like
// "1000 1000 1\n"; denser blocks grow them.
//
// The common line is read here in one pass: two indices of 1 to 7 digits,
// each read with one 8-byte load, then '\n' in a pattern file and in any
// other a ' ' and a value token of an optional sign, digits and at most one
// ".", ended by '\n'. The indices are separated by one ' '. Every other
// line, and every line that starts within 16 bytes of the end of the block,
// goes to parseEntryFast and parseEntrySlow, which define what is accepted.
// A structure read takes a value token that scanDecimal finds sure to
// convert as it is, without converting it.
func (b *entryBlock) parse(f *entryFormat) {
	data := (*b.buf)[b.from:]
	if b.t == nil {
		b.t = tripletPool.Get().(*blockTriplets)
	}
	t := b.t
	size := len(data)/10 + 1
	if f.mirror {
		size *= 2
	}
	t.reset(size)
	row, col, val := t.row, t.col[:len(t.row)], t.val[:len(t.row)]
	k, entries := 0, 0
	var err error
	for p := 0; p < len(data); {
		var i, j int
		v, next, st := 1.0, 0, entrySlow
		if q := p; q+16 <= len(data) {
			var n int
			x := binary.LittleEndian.Uint64(data[q:])
			if n = swarLen(x); uint(n-1) < 7 && byte(x>>(8*n)) == ' ' {
				i = swarValue(x, n)
				q += n + 1
				x = binary.LittleEndian.Uint64(data[q:])
				if n = swarLen(x); uint(n-1) < 7 {
					j = swarValue(x, n)
					q += n
					if sep := byte(x >> (8 * n)); f.pattern {
						if sep == '\n' {
							next, st = q+1, entryOK
						}
					} else if sep == ' ' {
						var exact, converts bool
						start := q + 1
						if v, q, exact, converts = scanDecimal(data, start, f.values); q < len(data) && data[q] == '\n' {
							if exact || !f.values && converts {
								next, st = q+1, entryOK
							} else if pv, err := strconv.ParseFloat(string(data[start:q]), 64); err == nil {
								v, next, st = pv, q+1, entryOK
							}
						}
					}
				}
			}
		}
		if st == entrySlow {
			i, j, v, next, st = parseEntryFast(data, p, f)
		}
		if st == entrySlow {
			line := data[p:lineEnd(data, p)]
			next = p + len(line) + 1
			if i, j, v, st, err = parseEntrySlow(string(line), f.pattern); err != nil {
				break
			}
		}
		p = next
		if st == entrySkip {
			continue
		}
		if !f.inBounds(i, j) {
			err = fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrIndexRange, i, j, f.rows, f.cols)
			break
		}
		if k+2 > len(row) {
			t.row, t.col, t.val = row[:k], col[:k], val[:k]
			t.reset(2 * len(row))
			row, col, val = t.row, t.col[:len(t.row)], t.val[:len(t.row)]
		}
		row[k], col[k], val[k] = int32(i-1), int32(j-1), v
		k++
		if f.mirror && i != j {
			if f.skew {
				v = -v
			}
			row[k], col[k], val[k] = int32(j-1), int32(i-1), v
			k++
		}
		entries++
	}
	t.row, t.col, t.val = row[:k], col[:k], val[:k]
	t.summarize()
	b.entries, b.err = entries, err
}

// swarLen returns how many ASCII digits lead the 8 bytes of x, the first
// in its low byte.
func swarLen(x uint64) int {
	// A byte is a digit when its high nibble is 3 both as it is and plus
	// 6. A carry out of a byte of 0xFA or more reaches only the bytes after
	// it, and that non-digit ends the run before them.
	nd := (x&0xF0F0F0F0F0F0F0F0 ^ 0x3030303030303030) |
		((x+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 ^ 0x3030303030303030)
	return bits.TrailingZeros64(nd) >> 3
}

// swarValue returns the value of the n digits, 1 to 7 of them, that lead
// x: it shifts them, the most significant first, into the top bytes above
// zeros, and combines adjacent digits, then pairs, then quads.
func swarValue(x uint64, n int) int {
	v := (x & 0x0F0F0F0F0F0F0F0F) << ((64 - 8*n) & 63)
	v = v * (10<<8 + 1) >> 8
	v = (v & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	v = (v & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
	return int(v)
}

// inBounds reports whether the 1-based (i, j) lies inside the matrix. The
// header caps rows and cols at math.MaxInt32, so the 0-based coordinates of
// such a position fit an int32.
func (f *entryFormat) inBounds(i, j int) bool {
	return i >= 1 && i <= f.rows && j >= 1 && j <= f.cols
}

// tripletsOf returns how many of t's triplets its first n entries made, in
// a mirrored file: two for an off-diagonal entry, one for a diagonal one.
func (t *blockTriplets) tripletsOf(n int) int {
	k := 0
	for ; n > 0; n-- {
		if t.row[k] != t.col[k] {
			k++
		}
		k++
	}
	return k
}

// releaseBlock returns a block buffer to its pool, unless a long line grew
// it past blockBytes.
func releaseBlock(buf *[]byte) {
	if cap(*buf) <= blockBytes {
		blockPool.Put(buf)
	}
}

// blockSource cuts a stream into blocks of whole lines. The header is read
// from it a line at a time; the entry section a block at a time.
type blockSource struct {
	r    io.Reader
	size int    // bytes a block is filled to before it is cut
	tail []byte // the unfinished line the next block starts with
	// err is why the stream ended: io.EOF, a read error, or
	// errLineTooLong. Every byte before it is in a block already handed
	// out, except the unfinished last line before a read error, which is
	// dropped.
	err error
	// cur is the block line reads come from, pos the start of its first
	// unread line.
	cur *[]byte
	pos int
}

// maxEmptyReads is how many successive empty reads a stream may return
// before it is abandoned with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

// next refills *bp with the next block: whole lines, each ended by "\n"
// except the last line of the stream. It reports false, leaving *bp empty,
// once the stream has ended, with s.err saying why. No line of a block is
// maxLineBytes long or longer: such a line ends the stream with
// errLineTooLong instead.
func (s *blockSource) next(bp *[]byte) bool {
	if s.err != nil {
		*bp = (*bp)[:0]
		return false
	}
	buf := append((*bp)[:0], s.tail...)
	s.tail = s.tail[:0]
	limit := max(s.size, len(buf))
	for {
		for empty := 0; len(buf) < limit && s.err == nil; {
			if cap(buf) < limit {
				buf = slices.Grow(buf, limit-len(buf))
			}
			n, err := s.r.Read(buf[len(buf):limit])
			buf, s.err = buf[:len(buf)+n], err
			if n > 0 {
				empty = 0
			} else if empty++; empty == maxEmptyReads && err == nil {
				s.err = io.ErrNoProgress
			}
		}
		nl := bytes.LastIndexByte(buf, '\n')
		switch {
		case s.err == io.EOF && (nl >= 0 || len(buf) < maxLineBytes):
			// The whole rest of the stream; its last line needs no "\n".
		case s.err != nil:
			// A read error drops the unfinished line before it.
			if s.err == io.EOF {
				s.err = errLineTooLong
			}
			buf = buf[:nl+1]
		case nl >= 0:
			s.tail = append(s.tail, buf[nl+1:]...)
			buf = buf[:nl+1]
		case len(buf) >= maxLineBytes:
			s.err = errLineTooLong
			buf = buf[:0]
		default:
			// One line fills the block: read on until it ends.
			limit = min(2*limit, maxLineBytes)
			continue
		}
		*bp = buf
		return len(buf) > 0
	}
}

// line returns the next line without its "\n" terminator or a "\r" before
// it, or the reason the stream ended (io.EOF at its end). The line aliases
// the current block until the next call.
func (s *blockSource) line() ([]byte, error) {
	if s.cur == nil {
		s.cur = blockPool.Get().(*[]byte)
		*s.cur = (*s.cur)[:0]
	}
	for s.pos == len(*s.cur) {
		if s.pos = 0; !s.next(s.cur) {
			return nil, s.err
		}
	}
	b := (*s.cur)[s.pos:]
	line := b[:lineEnd(b, 0)]
	s.pos += min(len(line)+1, len(b))
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// fill loads the next block of unread lines into the ring slot b: first
// the rest of the block the header was read from, whose buffer the first
// slot filled takes over, then blocks read into b's own buffer. It reports
// false once the stream has ended.
func (s *blockSource) fill(b *entryBlock) bool {
	b.from = 0
	if s.cur != nil {
		b.buf, b.from, s.cur = s.cur, s.pos, nil
		if b.from < len(*b.buf) {
			return true
		}
		b.from = 0
	}
	if b.buf == nil {
		b.buf = blockPool.Get().(*[]byte)
	}
	return s.next(b.buf)
}

// close returns the header's block to its pool if no ring slot took it.
func (s *blockSource) close() {
	if s.cur != nil {
		releaseBlock(s.cur)
		s.cur = nil
	}
}

// entryStatus is what parsing one entry line found.
type entryStatus int

const (
	entryOK   entryStatus = iota // an entry
	entrySkip                    // a blank or comment line
	entrySlow                    // beyond the fast parser; reparse with parseEntrySlow
)

// parseEntryFast parses the entry line starting at b[p] in place, without
// allocating, and returns the index just past the line's "\n". It answers
// entryOK or entrySkip only where parseEntrySlow would read the line the
// same way: ASCII-whitespace-separated fields, index tokens of at most
// maxFastIndexBytes sign and digit bytes, and a value token that
// scanDecimal converts exactly or strconv.ParseFloat accepts. A structure
// read does not convert a value token that scanDecimal finds sure to
// convert. A byte
// >= 0x80 inside a field fails the index or value parse, so every such
// line, like every malformed one, is answered entrySlow.
func parseEntryFast(b []byte, p int, f *entryFormat) (i, j int, val float64, next int, st entryStatus) {
	p = skipBlank(b, p)
	if p == len(b) || b[p] == '\n' {
		return 0, 0, 0, p + 1, entrySkip
	}
	if b[p] == '%' {
		return 0, 0, 0, lineEnd(b, p) + 1, entrySkip
	}
	var ok bool
	if i, p, ok = parseIndex(b, p); !ok {
		return 0, 0, 0, 0, entrySlow
	}
	if j, p, ok = parseIndex(b, skipBlank(b, p)); !ok {
		return 0, 0, 0, 0, entrySlow
	}
	val = 1
	if !f.pattern {
		p = skipBlank(b, p)
		var end int
		var exact, converts bool
		val, end, exact, converts = scanDecimal(b, p, f.values)
		if end < len(b) && !isSpace(b[end]) {
			// The token goes on past the decimal, as an exponent does.
			exact, converts = false, false
			for ; end < len(b) && !isSpace(b[end]); end++ {
			}
		}
		if !exact && (f.values || !converts) {
			if end == p {
				return 0, 0, 0, 0, entrySlow
			}
			// The conversion does not allocate: strconv copies the string
			// only to report an error.
			var err error
			if val, err = strconv.ParseFloat(string(b[p:end]), 64); err != nil {
				return 0, 0, 0, 0, entrySlow
			}
		}
		p = end
	}
	return i, j, val, lineEnd(b, p) + 1, entryOK
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanDecimal reads the token at b[p] of an optional sign, digits and at
// most one ".", up to the first byte that cannot extend it, and returns the
// index of that byte. When the token has at least one digit, at most 15 of
// them from the first nonzero one on, and at most 22 after the ".", exact is
// true and val is the token's value, converted the way strconv.ParseFloat
// does: the digits as an integer, which is below 2^52 and so exact, divided
// by an exact power of ten, one correctly rounded step. With long set, a
// token of 16 to 19 such digits is converted too, by eiselLemire64, which
// returns the correctly rounded value or declines, leaving exact false.
//
// converts reports that strconv.ParseFloat accepts the token: it has a
// digit and at most maxIntegerDigits digits before the point. Such a token
// can fail only by overflow, which takes more; a value too small to
// represent rounds to 0 without an error. A longer integer part may still
// convert, and is left to ParseFloat.
func scanDecimal(b []byte, p int, long bool) (val float64, end int, exact, converts bool) {
	neg := false
	if p < len(b) && (b[p] == '-' || b[p] == '+') {
		neg = b[p] == '-'
		p++
	}
	// Zeros before the first nonzero digit are not significant.
	zeros, dot := 0, -1
	for ; p < len(b); p++ {
		if c := b[p]; c == '0' {
			zeros++
		} else if c == '.' && dot < 0 {
			dot = zeros
		} else {
			break
		}
	}
	var mant uint64
	sig := 0
	for ; p < len(b); p++ {
		c := b[p]
		if d := c - '0'; d <= 9 {
			mant = mant*10 + uint64(d)
			sig++
		} else if c == '.' && dot < 0 {
			dot = zeros + sig
		} else {
			break
		}
	}
	digits, frac, intDigits := zeros+sig, 0, zeros+sig
	if dot >= 0 {
		frac, intDigits = digits-dot, dot
	}
	converts = digits > 0 && intDigits <= maxIntegerDigits
	if digits == 0 || frac >= len(float64pow10) || sig > 15 && (!long || sig > maxLongDigits) {
		return 0, p, false, converts
	}
	if sig > 15 {
		val, exact = eiselLemire64(mant, frac, neg)
		return val, p, exact, converts
	}
	f := float64(int64(mant))
	if neg {
		f = -f
	}
	if frac == 0 {
		return f, p, true, true
	}
	return f / float64pow10[frac], p, true, true
}

// maxIntegerDigits is the most digits before the point that a decimal
// token can have and be sure to convert: below 10^308 it is under
// math.MaxFloat64.
const maxIntegerDigits = 308

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

// skipBlank returns the index of the first byte of b at or after p that is
// not whitespace within a line: '\n' ends the skip.
func skipBlank(b []byte, p int) int {
	for p < len(b) && isSpace(b[p]) && b[p] != '\n' {
		p++
	}
	return p
}

// lineEnd returns the index of the first "\n" of b at or after p, or
// len(b) when there is none.
func lineEnd(b []byte, p int) int {
	if p < len(b) && b[p] == '\n' {
		return p
	}
	if k := bytes.IndexByte(b[p:], '\n'); k >= 0 {
		return p + k
	}
	return len(b)
}

// parseIndex is strconv.Atoi for the token starting at b[p] when that
// token is an optional sign and decimal digits, at most maxFastIndexBytes
// bytes long, ended by whitespace or the end of b. It returns the value
// and the index just past the token.
func parseIndex(b []byte, p int) (int, int, bool) {
	start := p
	neg := false
	if p < len(b) && (b[p] == '-' || b[p] == '+') {
		neg = b[p] == '-'
		p++
	}
	digits := p
	n := 0
	for ; p < len(b) && b[p]-'0' <= 9; p++ {
		n = n*10 + int(b[p]-'0')
	}
	if p == digits || p-start > maxFastIndexBytes || p < len(b) && !isSpace(b[p]) {
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
