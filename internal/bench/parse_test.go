package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseFixture converts one canned `go test` output from testdata.
func parseFixture(t *testing.T, name string) (*Report, error) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return Parse(f)
}

// TestParseGolden converts two pkg blocks of -count 3 output, with
// bracketed method names and every unit the package benchmarks report,
// and holds the written report to the golden file byte for byte.
func TestParseGolden(t *testing.T) {
	rep, err := parseFixture(t, "gotest.txt")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "gotest.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from testdata/gotest.golden.json; got:\n%s", got)
	}
}

// TestParseStatsOrdering pins what one row keeps: the samples in input
// order, ordered summary statistics, and the median of every other unit.
func TestParseStatsOrdering(t *testing.T) {
	rep, err := parseFixture(t, "gotest.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 || rep.Env.GOMAXPROCS != 2 || rep.Env.CPU != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("rows=%d env=%+v, want 4 rows at GOMAXPROCS 2", len(rep.Results), rep.Env)
	}
	lav := rep.Results[0]
	if lav.Pkg != "wise/internal/kernels" || lav.Name != "BenchmarkBuild/s13/rmat_d16/LAV[c=8,T=70%]" {
		t.Fatalf("first row = %s %s", lav.Pkg, lav.Name)
	}
	if want := []float64{2e6, 3e6, 2.5e6}; len(lav.Ns) != 3 || lav.Ns[0] != want[0] || lav.Ns[1] != want[1] || lav.Ns[2] != want[2] {
		t.Errorf("samples = %v, want %v in input order", lav.Ns, want)
	}
	if !(lav.NsMin <= lav.NsMedian && lav.NsMedian <= lav.NsP95) || lav.NsMin != 2e6 || lav.NsMedian != 2.5e6 {
		t.Errorf("min/median/p95 = %v/%v/%v", lav.NsMin, lav.NsMedian, lav.NsP95)
	}
	if lav.Units["spmv/op"] != 12.5 || lav.Units["allocs/op"] != 9 || lav.Units["B/op"] != 3008816 {
		t.Errorf("units = %v", lav.Units)
	}
	if mb := rep.Results[3].Units["MB/s"]; rep.Results[3].Pkg != "wise/internal/matrix" || mb != 300 {
		t.Errorf("matrix row: pkg %s MB/s %v, want wise/internal/matrix 300", rep.Results[3].Pkg, mb)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := parseFixture(t, "gotest-fail.txt"); !errors.Is(err, ErrFailed) {
		t.Errorf("FAIL output: err = %v, want ErrFailed", err)
	}
	mixed := "pkg: p\nBenchmarkA-2 \t 10\t 100 ns/op\nBenchmarkA \t 10\t 100 ns/op\n"
	if _, err := Parse(strings.NewReader(mixed)); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("mixed -cpu output: err = %v, want a GOMAXPROCS error", err)
	}
	if _, err := Parse(strings.NewReader("PASS\nok  \twise/internal/gen\t0.1s\n")); err == nil {
		t.Error("output without benchmark lines accepted")
	}
}
