package matrix

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomCSR(t, rng, 20, 30, 0.1)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("MatrixMarket round trip changed matrix")
	}
}

func TestMatrixMarketFileRoundTrip(t *testing.T) {
	m := Fig1Example()
	path := filepath.Join(t.TempDir(), "fig1.mtx")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("file round trip changed matrix")
	}
}

func TestReadSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
1 1 2.0
2 1 5.0
3 3 1.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 { // off-diagonal mirrored
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	d := m.ToDense()
	if d[0*3+1] != 5 || d[1*3+0] != 5 {
		t.Error("symmetric entry not mirrored")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	if d[1*2+0] != 3 || d[0*2+1] != -3 {
		t.Errorf("skew mirror wrong: %v", d)
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Vals[0] != 1 || m.Vals[1] != 1 {
		t.Error("pattern values should be 1")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "%%NotMatrixMarket\n1 1 1\n1 1 1\n",
		"array format": "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"bad type":     "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry": "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"short":        "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n",
		"out of range": "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"bad value":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
		"bad index":    "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n",
		"no value":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
	}
	for name, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% comment 1

% comment 2
2 2 2
% inline comment
1 1 1.0

2 2 2.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
}

// TestReadSumsDuplicatesInFileOrder pins the reader's duplicate rule:
// repeated coordinates are summed in file order, a mirrored entry taking
// the place of the line it came from. The values are picked so that any
// other order gives a different float64.
func TestReadSumsDuplicatesInFileOrder(t *testing.T) {
	cases := []struct {
		name string
		body string
		want *CSR
	}{
		{"big first cancels the small one",
			"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1e16\n1 1 1\n1 1 -1e16\n",
			&CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1, 1}, ColIdx: []int32{0}, Vals: []float64{0}}},
		{"cancellation first keeps the small one",
			"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1e16\n1 1 -1e16\n1 1 1\n",
			&CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1, 1}, ColIdx: []int32{0}, Vals: []float64{1}}},
		{"interleaved rows, unsorted",
			"%%MatrixMarket matrix coordinate real general\n2 2 4\n2 2 1\n1 1 5\n2 2 1e16\n2 2 -1e16\n",
			&CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{0, 1}, Vals: []float64{5, 0}}},
		{"mirrored entries in line order",
			"%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n2 1 1e16\n1 2 -1e16\n2 1 1\n",
			&CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{1, 0}, Vals: []float64{1, 1}}},
		{"zero sums stay stored",
			"%%MatrixMarket matrix coordinate real general\n1 2 3\n1 2 2\n1 1 3\n1 2 -2\n",
			&CSR{Rows: 1, Cols: 2, RowPtr: []int64{0, 2}, ColIdx: []int32{0, 1}, Vals: []float64{3, 0}}},
	}
	for _, tc := range cases {
		got, err := ReadMatrixMarket(strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Equal(tc.want) {
			t.Errorf("%s: got %v %v %v, want %v %v %v", tc.name,
				got.RowPtr, got.ColIdx, got.Vals, tc.want.RowPtr, tc.want.ColIdx, tc.want.Vals)
		}
	}
}

// TestReadLineCap pins the 1 MiB line cap at its boundary, for a line in
// the middle of the stream and for a last line without a newline, and
// checks that the original reader draws the line in the same place.
func TestReadLineCap(t *testing.T) {
	const head = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n"
	for _, tc := range []struct {
		name string
		body string
		ok   bool
	}{
		{"longest comment", head + "%" + strings.Repeat("x", maxLineBytes-2) + "\n2 2 1\n", true},
		{"comment one byte too long", head + "%" + strings.Repeat("x", maxLineBytes-1) + "\n2 2 1\n", false},
		{"longest last line", head + "2 2 1" + strings.Repeat(" ", maxLineBytes-6), true},
		{"last line one byte too long", head + "2 2 1" + strings.Repeat(" ", maxLineBytes-5), false},
	} {
		_, err := ReadMatrixMarket(strings.NewReader(tc.body))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
		}
		if _, oracleErr := readOracle(strings.NewReader(tc.body), DefaultReadLimits()); (oracleErr == nil) != tc.ok {
			t.Errorf("%s: oracle err = %v, want ok %v", tc.name, oracleErr, tc.ok)
		}
	}
}

// TestReadAllocsIndependentOfNNZ pins the reader to a small constant
// number of allocations for a 2^13-row body, however many nonzeros it
// holds: no per-line strings, no per-entry growth past the declared count.
func TestReadAllocsIndependentOfNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomCSR(t, rng, 1<<13, 1<<13, 12.0/(1<<13))
	var body bytes.Buffer
	if err := WriteMatrixMarket(&body, m); err != nil {
		t.Fatal(err)
	}
	raw := body.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadMatrixMarket(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("parsing a %d-row, %d-nonzero body: %v allocs, want <= 64", m.Rows, m.NNZ(), allocs)
	}
}

// TestBuildCSRSortsAndMerges drives the triplet builder through long and
// short unsorted rows, with duplicates, against a dense accumulation in
// input order.
func TestBuildCSRSortsAndMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows, cols = 7, 200
	var ri, ci []int32
	var v []float64
	dense := make([]float64, rows*cols)
	present := make([]bool, rows*cols)
	for k := 0; k < 600; k++ {
		r := int32(rng.Intn(rows))
		c := int32(rng.Intn(cols))
		if r == 3 {
			c %= 8 // a short row full of duplicates
		}
		x := rng.NormFloat64()
		ri, ci, v = append(ri, r), append(ci, c), append(v, x)
		dense[int(r)*cols+int(c)] += x
		present[int(r)*cols+int(c)] = true
	}
	m := buildCSR(rows, cols, ri, ci, v)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	stored := 0
	for i := 0; i < rows; i++ {
		cs, vs := m.Row(i)
		for k, c := range cs {
			if got, want := vs[k], dense[i*cols+int(c)]; got != want {
				t.Fatalf("(%d,%d) = %v, want %v", i, c, got, want)
			}
		}
		stored += len(cs)
	}
	want := 0
	for _, p := range present {
		if p {
			want++
		}
	}
	if stored != want {
		t.Fatalf("stored %d entries, want %d distinct coordinates", stored, want)
	}
}
