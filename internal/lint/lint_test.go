package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module is loaded (parsed + fully type-checked) once and shared by
// every test; loading is by far the dominant cost.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func repoModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() {
		mod, modErr = LoadModule(".")
	})
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod
}

func TestLoadModule(t *testing.T) {
	m := repoModule(t)
	if m.ModPath != "wise" {
		t.Fatalf("module path = %q, want wise", m.ModPath)
	}
	for _, path := range []string{"wise/internal/obs", "wise/internal/ml", "wise/internal/matrix", "wise"} {
		if m.Lookup(path) == nil {
			t.Errorf("package %s not loaded", path)
		}
	}
	for _, pkg := range m.Packages {
		if pkg.Types == nil || pkg.Info == nil {
			t.Errorf("package %s not type-checked", pkg.Path)
		}
		for _, name := range pkg.Filenames {
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("test file %s loaded; loader must skip tests", name)
			}
		}
	}
}

// wantMarkers scans fixture files for trailing "// want <analyzer>" comments
// and returns the expected file:line set for one analyzer.
func wantMarkers(t *testing.T, dir, analyzer string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), "// want "+analyzer) {
				abs, _ := filepath.Abs(path)
				want[fmt.Sprintf("%s:%d", abs, line)] = true
			}
		}
		f.Close()
	}
	return want
}

// TestFixtures checks, for every analyzer, that its fixture package yields a
// finding on exactly the lines marked "// want <name>" — at least one true
// positive — and nothing anywhere else (the clean file and the suppressed
// cases stay silent).
func TestFixtures(t *testing.T) {
	m := repoModule(t)
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			pkg, err := m.LoadFixture(dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			want := wantMarkers(t, dir, a.Name)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want markers; every analyzer needs a true positive", dir)
			}
			got := make(map[string]bool)
			for _, f := range RunPackage(m, pkg, []*Analyzer{a}) {
				if f.Analyzer != a.Name {
					t.Errorf("unexpected %s finding in %s fixture: %s", f.Analyzer, a.Name, f)
					continue
				}
				got[fmt.Sprintf("%s:%d", f.File, f.Line)] = true
			}
			for loc := range want {
				if !got[loc] {
					t.Errorf("missing finding at %s", loc)
				}
			}
			for loc := range got {
				if !want[loc] {
					t.Errorf("unexpected finding at %s", loc)
				}
			}
		})
	}
}

// TestModuleClean is the acceptance gate in test form: the final tree must
// be free of unsuppressed findings, so wise-lint exits 0 in check.sh.
func TestModuleClean(t *testing.T) {
	m := repoModule(t)
	findings := Run(m, All())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("%d finding(s); fix or //lint:ignore with a rationale", len(findings))
	}
}

func TestSuppression(t *testing.T) {
	dirs := []ignoreDirective{
		{file: "a.go", line: 10, analyzer: "floateq", reason: "why"},
		{file: "a.go", line: 20, analyzer: "*", reason: "blanket"},
	}
	cases := []struct {
		f    Finding
		want bool
	}{
		{Finding{Analyzer: "floateq", File: "a.go", Line: 10}, true},  // same line
		{Finding{Analyzer: "floateq", File: "a.go", Line: 11}, true},  // line below directive
		{Finding{Analyzer: "floateq", File: "a.go", Line: 12}, false}, // too far
		{Finding{Analyzer: "errdrop", File: "a.go", Line: 10}, false}, // other analyzer
		{Finding{Analyzer: "errdrop", File: "a.go", Line: 21}, true},  // wildcard
		{Finding{Analyzer: "floateq", File: "b.go", Line: 10}, false}, // other file
	}
	for _, c := range cases {
		if got := suppressed(c.f, dirs); got != c.want {
			t.Errorf("suppressed(%+v) = %v, want %v", c.f, got, c.want)
		}
	}
}

// TestMalformedIgnoreReported checks the directive diagnostics that no
// suppression can hide: a directive without a reason is malformed, and one
// naming an analyzer the suite does not have is dead (it can never suppress
// anything). A directive for a suite analyzer the run left out stays exempt.
func TestMalformedIgnoreReported(t *testing.T) {
	m := repoModule(t)
	cases := []struct {
		name, directive string
		analyzers       []*Analyzer
		want            string // substring of the single finding; "" = no finding
	}{
		{"no reason", "//lint:ignore floateq", nil, "malformed"},
		{"unknown analyzer", "//lint:ignore nosuchanalyzer gone from the suite", nil, "names no analyzer in the suite"},
		{"unknown analyzer in a subset run", "//lint:ignore nosuchanalyzer gone from the suite", []*Analyzer{FloatEqAnalyzer}, "names no analyzer in the suite"},
		{"analyzer left out of the run", "//lint:ignore errdrop covered by a test", []*Analyzer{FloatEqAnalyzer}, ""},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := "package p\n\nfunc f() int {\n\t" + tc.directive + "\n\treturn 1\n}\n"
			if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			pkg, err := m.LoadExtraDir(dir, fmt.Sprintf("fixture/directive%d", i))
			if err != nil {
				t.Fatal(err)
			}
			findings := RunPackage(m, pkg, tc.analyzers)
			if tc.want == "" {
				if len(findings) != 0 {
					t.Fatalf("want no findings, got %v", findings)
				}
				return
			}
			if len(findings) != 1 || !strings.Contains(findings[0].Message, tc.want) {
				t.Fatalf("want one finding containing %q, got %v", tc.want, findings)
			}
		})
	}
}

// TestLoadJobsDeterministic pins the parallel loader's promise: the report
// does not depend on how many workers type-checked the module, on the real
// tree or on the analyzer fixtures.
func TestLoadJobsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module twice; skipped in -short")
	}
	report := func(jobs int) string {
		m, err := LoadModuleJobs(".", jobs)
		if err != nil {
			t.Fatalf("LoadModuleJobs(%d): %v", jobs, err)
		}
		fs := Run(m, All())
		for _, a := range All() {
			pkg, err := m.LoadFixture(filepath.Join("testdata", a.Name))
			if err != nil {
				t.Fatalf("jobs=%d: loading %s fixture: %v", jobs, a.Name, err)
			}
			fs = append(fs, RunPackage(m, pkg, All())...)
		}
		var b strings.Builder
		if err := WriteJSON(&b, fs); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial, parallel := report(1), report(4)
	if serial != parallel {
		t.Fatalf("findings differ between 1 and 4 load jobs:\n--- jobs=1\n%s\n--- jobs=4\n%s", serial, parallel)
	}
	if !strings.Contains(serial, `"analyzer"`) {
		t.Fatal("fixtures produced no findings; the comparison is vacuous")
	}
}

func TestFindingsSortedAndJSON(t *testing.T) {
	fs := []Finding{
		{Analyzer: "b", File: "z.go", Line: 2, Col: 1},
		{Analyzer: "a", File: "a.go", Line: 9, Col: 3},
		{Analyzer: "a", File: "a.go", Line: 1, Col: 7},
	}
	sortFindings(fs)
	if !sort.SliceIsSorted(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		return fs[i].Line < fs[j].Line
	}) {
		t.Fatalf("findings not sorted: %v", fs)
	}
	var b strings.Builder
	if err := WriteJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("nil findings must encode as [], got %q", b.String())
	}
}
