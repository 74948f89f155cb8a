package features

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"wise/internal/gen"
	"wise/internal/matrix"
	"wise/internal/stats"
)

// TestExtractCtxCancelled pins the deadline-aware path: a pre-cancelled
// context aborts extraction with the context's error, and the background
// context reproduces Extract bit for bit.
func TestExtractCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := gen.Uniform(rng, 2048, 8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtractCtx(ctx, m, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled extract err = %v, want context.Canceled", err)
	}

	got, err := ExtractCtx(context.Background(), m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := Extract(m, DefaultConfig())
	if len(got.Values) != len(want.Values) {
		t.Fatalf("value count %d != %d", len(got.Values), len(want.Values))
	}
	for i := range got.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("feature %s differs: %v vs %v", want.Names[i], got.Values[i], want.Values[i])
		}
	}
}

func TestFeatureCountAndNames(t *testing.T) {
	m := matrix.Fig1Example()
	f := Extract(m, DefaultConfig())
	if len(f.Names) != len(f.Values) {
		t.Fatalf("names %d != values %d", len(f.Names), len(f.Values))
	}
	if len(f.Values) != FeatureCount() {
		t.Fatalf("got %d features, want %d", len(f.Values), FeatureCount())
	}
	seen := map[string]bool{}
	for _, n := range f.Names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	// Table 2 spot checks.
	for _, want := range []string{
		"n_rows", "n_cols", "nnz",
		"mu_R", "sigma_R", "var_R", "gini_R", "p_R", "min_R", "max_R", "ne_R",
		"mu_C", "gini_C", "p_C",
		"mu_T", "gini_T", "p_T", "ne_T",
		"mu_RB", "mu_CB",
		"uniqR", "uniqC", "gr4_uniqR", "gr64_uniqC",
		"potReuseR", "potReuseC", "gr8_potReuseR", "gr32_potReuseC",
	} {
		if !seen[want] {
			t.Errorf("missing feature %q", want)
		}
	}
}

func TestSizeAndSkewFeatures(t *testing.T) {
	m := matrix.Fig1Example()
	f := Extract(m, DefaultConfig())
	if f.Get("n_rows") != 8 || f.Get("n_cols") != 8 || f.Get("nnz") != 17 {
		t.Errorf("size features wrong")
	}
	if got, want := f.Get("mu_R"), 17.0/8.0; got != want {
		t.Errorf("mu_R = %v, want %v", got, want)
	}
	if got := f.Get("max_R"); got != 3 {
		t.Errorf("max_R = %v", got)
	}
	if got := f.Get("max_C"); got != 5 {
		t.Errorf("max_C = %v (c3 has 5 nonzeros)", got)
	}
	if got := f.Get("ne_R"); got != 8 {
		t.Errorf("ne_R = %v", got)
	}
	wantGini := stats.Gini(m.RowCounts())
	if got := f.Get("gini_R"); got != wantGini {
		t.Errorf("gini_R = %v, want %v", got, wantGini)
	}
}

func TestGetPanicsOnUnknown(t *testing.T) {
	f := Extract(matrix.Fig1Example(), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Get("no_such_feature")
}

func TestTilingGeometry(t *testing.T) {
	tl := newTiling(1000, 500, 64)
	if tl.tileRows != 16 || tl.tileCols != 8 {
		t.Errorf("tile dims %dx%d", tl.tileRows, tl.tileCols)
	}
	if tl.kr != 63 || tl.kc != 63 {
		t.Errorf("grid %dx%d, want 63x63 (ceil(1000/16), ceil(500/8))", tl.kr, tl.kc)
	}
	// Tiny matrix: tiles clamp to 1x1 elements.
	tl = newTiling(3, 3, 64)
	if tl.tileRows != 1 || tl.kr != 3 {
		t.Errorf("tiny tiling %+v", tl)
	}
}

// bruteForceCounts computes distinct (tile, row-group) and (tile, col-group)
// pairs naively for cross-checking the streaming implementations.
func bruteForceCounts(m *matrix.CSR, tl tiling, x int) (rowPairs, colPairs int64) {
	rseen := map[[2]int]bool{}
	cseen := map[[2]int]bool{}
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			tile := (i/tl.tileRows)*tl.kc + int(c)/tl.tileCols
			rseen[[2]int{tile, i / x}] = true
			cseen[[2]int{tile, int(c) / x}] = true
		}
	}
	return int64(len(rseen)), int64(len(cseen))
}

func TestUniqCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mats := []*matrix.CSR{
		matrix.Fig1Example(),
		gen.RMAT(rng, 8, 6, gen.HighSkew),
		gen.RGG(rng, 300, 5),
		gen.Banded(rng, 100, []int{-3, 0, 3}),
		gen.PowerLawRows(rng, 200, 2.0, 64),
	}
	for mi, m := range mats {
		for _, k := range []int{4, 16, 64} {
			tl := newTiling(m.Rows, m.Cols, k)
			// walk reuses one pooled column scratch across these matrices
			// of different widths, so stale epochs are exercised too.
			w, colSide, err := walk(context.Background(), m, tl)
			if err != nil {
				t.Fatal(err)
			}
			for g, x := range append([]int{1}, GroupSizes...) {
				wantR, wantC := bruteForceCounts(m, tl, x)
				if w.rowSide[g] != wantR {
					t.Errorf("matrix %d K=%d X=%d: rowSide %d, want %d", mi, k, x, w.rowSide[g], wantR)
				}
				if colSide[g] != wantC {
					t.Errorf("matrix %d K=%d X=%d: colSide %d, want %d", mi, k, x, colSide[g], wantC)
				}
			}
		}
	}
}

func TestLocalityFeatureDiscriminates(t *testing.T) {
	// The T-distribution p-ratio must separate high-locality (diagonal)
	// matrices from uniform ones: diagonal concentration means fewer tiles
	// hold all nonzeros (lower p_T).
	rng := rand.New(rand.NewSource(6))
	n := 2048
	banded := gen.Banded(rng, n, []int{-2, -1, 0, 1, 2})
	uniform := gen.Uniform(rng, n, 5)
	cfg := Config{K: 32}
	fb := Extract(banded, cfg)
	fu := Extract(uniform, cfg)
	if fb.Get("p_T") >= fu.Get("p_T") {
		t.Errorf("p_T banded %v >= uniform %v; locality not captured",
			fb.Get("p_T"), fu.Get("p_T"))
	}
	if fb.Get("ne_T") >= fu.Get("ne_T") {
		t.Errorf("ne_T banded %v >= uniform %v", fb.Get("ne_T"), fu.Get("ne_T"))
	}
}

func TestSkewFeatureDiscriminates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hs := gen.RMAT(rng, 10, 8, gen.HighSkew)
	ls := gen.RMAT(rng, 10, 8, gen.LowSkew)
	cfg := DefaultConfig()
	fh := Extract(hs, cfg)
	fl := Extract(ls, cfg)
	if fh.Get("p_R") >= fl.Get("p_R") {
		t.Errorf("p_R: HS %v >= LS %v", fh.Get("p_R"), fl.Get("p_R"))
	}
	if fh.Get("gini_R") <= fl.Get("gini_R") {
		t.Errorf("gini_R: HS %v <= LS %v", fh.Get("gini_R"), fl.Get("gini_R"))
	}
}

func TestReuseFeatureDiscriminates(t *testing.T) {
	// A matrix whose columns repeat across many row blocks (dense column)
	// has higher potReuseC than a block-diagonal one.
	n := 512
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ { // everyone touches the hot column block
			coo.Add(int32(i), int32(j), 1)
		}
		coo.Add(int32(i), int32(i), 1)
	}
	reuse := coo.ToCSR()
	coo2 := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo2.Add(int32(i), int32(i), 1)
		coo2.Add(int32(i), int32((i+1)%n), 1)
	}
	diag := coo2.ToCSR()
	cfg := Config{K: 16}
	fr := Extract(reuse, cfg)
	fd := Extract(diag, cfg)
	if fr.Get("potReuseC") <= fd.Get("potReuseC") {
		t.Errorf("potReuseC: reuse %v <= diag %v", fr.Get("potReuseC"), fd.Get("potReuseC"))
	}
}

func TestUniqRBounds(t *testing.T) {
	// uniqR sums distinct (tile,row) pairs over nnz: each nonzero creates at
	// most one pair, so the ratio lies in (0, 1] for nonempty matrices.
	rng := rand.New(rand.NewSource(8))
	for _, m := range []*matrix.CSR{
		matrix.Fig1Example(),
		gen.RMAT(rng, 9, 4, gen.MedSkew),
		gen.Banded(rng, 257, []int{0}),
	} {
		f := Extract(m, DefaultConfig())
		for _, name := range []string{"uniqR", "uniqC", "gr4_uniqR", "gr64_uniqC"} {
			v := f.Get(name)
			if v <= 0 || v > 1 {
				t.Errorf("%s = %v, want in (0,1]", name, v)
			}
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := matrix.NewCOO(4, 4).ToCSR()
	f := Extract(m, DefaultConfig())
	if f.Get("nnz") != 0 {
		t.Error("nnz should be 0")
	}
	for i, v := range f.Values {
		if v != v { // NaN check
			t.Errorf("feature %s is NaN on empty matrix", f.Names[i])
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := gen.RMAT(rng, 9, 8, gen.HighSkew)
	a := Extract(m, DefaultConfig())
	b := Extract(m, DefaultConfig())
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("feature %s nondeterministic", a.Names[i])
		}
	}
}

func TestPaperConfigK(t *testing.T) {
	if PaperConfig().K != 2048 {
		t.Error("paper K must be 2048")
	}
	// Extraction with K far above the matrix size must still work (1x1 tiles).
	f := Extract(matrix.Fig1Example(), PaperConfig())
	if f.Get("ne_T") != 17 {
		t.Errorf("with 1x1 tiles ne_T = %v, want nnz = 17", f.Get("ne_T"))
	}
}

func TestConfigKClamped(t *testing.T) {
	f := Extract(matrix.Fig1Example(), Config{K: 0})
	if len(f.Values) != FeatureCount() {
		t.Error("K=0 should clamp, not break")
	}
}

// TestExtractAllocsIndependentOfNNZ pins ExtractCtx to a small constant
// number of allocations, however many nonzeros the matrix holds.
func TestExtractAllocsIndependentOfNNZ(t *testing.T) {
	m := gen.RMATRows(rand.New(rand.NewSource(11)), 1<<13, 8, gen.MedSkew)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ExtractCtx(context.Background(), m, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("extracting features of a %d-nonzero matrix: %v allocs, want <= 40", m.NNZ(), allocs)
	}
}
