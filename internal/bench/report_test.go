package bench

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		Schema: SchemaVersion,
		Env:    Env{GOOS: "linux", GOARCH: "amd64", CPU: "test cpu", GOMAXPROCS: 2, Kernels: "go"},
		Results: []Result{
			{Pkg: "p", Name: "BenchmarkA/serial", Ns: []float64{300, 100, 200}, NsMin: 100, NsMedian: 200, NsP95: 290},
			{Pkg: "p", Name: "BenchmarkB", Ns: []float64{2e6}, NsMin: 2e6, NsMedian: 2e6, NsP95: 2e6,
				Units: map[string]float64{"allocs/op": 9}},
		},
	}
}

func TestReportWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_rt.json")
	want := sampleReport()
	if err := want.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if got.Schema != SchemaVersion || got.Env != want.Env {
		t.Errorf("header not round-tripped: %+v", got)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("results count %d, want %d", len(got.Results), len(want.Results))
	}
	if r := got.Results[0]; len(r.Ns) != 3 || r.Ns[0] != 300 || r.NsP95 != 290 {
		t.Errorf("samples not round-tripped in order: %+v", r)
	}
	if got.Results[1].Units["allocs/op"] != 9 {
		t.Errorf("units not round-tripped: %+v", got.Results[1])
	}
}

func TestReadReportSchemaMismatchNamesFile(t *testing.T) {
	// A future version, and schema 1: the removed preset suite's shape,
	// which the committed BENCH_1-5 history keeps.
	for _, path := range []string{filepath.Join("testdata", "BENCH_schema99.json"), filepath.Join("..", "..", "results", "BENCH_5.json")} {
		_, err := ReadReport(path)
		if err == nil {
			t.Fatalf("ReadReport accepted %s", path)
		}
		if !errors.Is(err, ErrSchema) {
			t.Errorf("error does not wrap ErrSchema: %v", err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error does not name the offending file: %v", err)
		}
	}
}

func TestReadReportErrors(t *testing.T) {
	if _, err := ReadReport(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":2,"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(empty); err == nil {
		t.Error("report with no results accepted")
	}
}

func TestReportStringHasHeaderAndRows(t *testing.T) {
	s := sampleReport().String()
	for _, want := range []string{"2 benchmarks", "p BenchmarkA/serial", "p BenchmarkB", "median", "kernels go"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
