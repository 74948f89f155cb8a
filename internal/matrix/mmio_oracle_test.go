package matrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// readOracle is the original MatrixMarket reader, kept as the differential
// oracle for ReadMatrixMarketLimited: a bufio.Scanner with a 1 MiB line
// cap, strings.Fields tokenizing and a sort.Slice COO canonicalization.
// It is slow and allocates per line, but its accept/reject behaviour is the
// specification the fast reader must reproduce.
func readOracle(r io.Reader, lim ReadLimits) (*CSR, error) {
	coo, err := readOracleCOO(r, lim)
	if err != nil {
		return nil, err
	}
	return oracleToCSR(coo), nil
}

// readOracleCOO is readOracle up to its COO, before duplicates are merged.
func readOracleCOO(r io.Reader, lim ReadLimits) (*COO, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<20)
	if !br.Scan() {
		return nil, fmt.Errorf("matrix: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(br.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("matrix: bad MatrixMarket header %q", br.Text())
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
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("matrix: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		if !br.Scan() {
			return nil, fmt.Errorf("matrix: missing size line")
		}
		line := strings.TrimSpace(br.Text())
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
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %dx%d exceeds the int32 index space", ErrDimension, rows, cols)
	}
	if symmetry != "general" && rows != cols {
		return nil, fmt.Errorf("%w: %s matrix must be square, got %dx%d",
			ErrDimension, symmetry, rows, cols)
	}

	coo := NewCOO(rows, cols)
	coo.Entries = make([]Entry, 0, min(nnz, maxEntryPrealloc))
	read := 0
	for read < nnz && br.Scan() {
		line := strings.TrimSpace(br.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("matrix: bad entry line %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("matrix: bad row index %q: %w", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("matrix: bad col index %q: %w", fields[1], err)
		}
		val := 1.0
		if valueType != "pattern" {
			if len(fields) < 3 {
				return nil, fmt.Errorf("matrix: missing value in %q", line)
			}
			val, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: bad value %q: %w", fields[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrIndexRange, i, j, rows, cols)
		}
		coo.Add(int32(i-1), int32(j-1), val)
		switch symmetry {
		case "symmetric":
			if i != j {
				coo.Add(int32(j-1), int32(i-1), val)
			}
		case "skew-symmetric":
			if i != j {
				coo.Add(int32(j-1), int32(i-1), -val)
			}
		}
		read++
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("matrix: expected %d entries, got %d", nnz, read)
	}
	return coo, nil
}

// oracleToCSR is the original COO to CSR conversion: sort.Slice by
// (row, col), duplicates summed in the unspecified order the sort leaves
// them in.
func oracleToCSR(c *COO) *CSR {
	if len(c.Entries) > 0 {
		sort.Slice(c.Entries, func(i, j int) bool {
			a, b := c.Entries[i], c.Entries[j]
			if a.Row != b.Row {
				return a.Row < b.Row
			}
			return a.Col < b.Col
		})
		out := c.Entries[:1]
		for _, e := range c.Entries[1:] {
			last := &out[len(out)-1]
			if e.Row == last.Row && e.Col == last.Col {
				last.Val += e.Val
			} else {
				out = append(out, e)
			}
		}
		c.Entries = out
	}
	m := &CSR{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: make([]int64, c.Rows+1),
		ColIdx: make([]int32, len(c.Entries)),
		Vals:   make([]float64, len(c.Entries)),
	}
	for _, e := range c.Entries {
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	for k, e := range c.Entries {
		m.ColIdx[k] = e.Col
		m.Vals[k] = e.Val
	}
	return m
}
