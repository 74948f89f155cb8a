package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles wise-lint once per test binary into a temp dir and
// returns the executable path plus the module root to run it from.
func buildCLI(t *testing.T) (string, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), "wise-lint")
	cmd := exec.Command("go", "build", "-o", exe, "./cmd/wise-lint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building wise-lint: %v\n%s", err, out)
	}
	return exe, root
}

// runCLI executes the built binary from the module root and returns its
// combined output and exit code.
func runCLI(t *testing.T, exe, root string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(exe, args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if ok := errorsAs(err, &ee); !ok {
		t.Fatalf("running %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

func errorsAs(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

// TestCLIUsageErrors pins the exit-2 contract: every malformed flag fails
// fast with a message naming the flag, before any analysis runs.
func TestCLIUsageErrors(t *testing.T) {
	exe, root := buildCLI(t)
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"unknown analyzer", []string{"-analyzers", "nosuchanalyzer", "./..."}, "unknown analyzer"},
		{"unknown pattern", []string{"./no/such/dir"}, "unknown package pattern"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runCLI(t, exe, root, tc.args...)
			if code != 2 {
				t.Errorf("%v: exit %d, want 2\n%s", tc.args, code, out)
			}
			if !strings.Contains(out, tc.wantMsg) {
				t.Errorf("%v: output %q should contain %q", tc.args, out, tc.wantMsg)
			}
		})
	}
}

// TestCLIOverBudgetSARIF runs the clean tree under an absurdly small budget
// and checks the contract from LINTING.md: exit 1, an "over the -budget"
// notice, and a SARIF log that still carries wallClockSeconds and
// budgetSeconds.
func TestCLIOverBudgetSARIF(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree CLI run skipped in -short")
	}
	exe, root := buildCLI(t)
	sarifPath := filepath.Join(t.TempDir(), "lint.sarif")
	out, code := runCLI(t, exe, root, "-budget", "1ns", "-sarif", sarifPath, "./...")
	if code != 1 {
		t.Fatalf("over budget: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "over the -budget") {
		t.Errorf("over-budget output should name the -budget, got:\n%s", out)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("SARIF was not written: %v", err)
	}
	var doc struct {
		Runs []struct {
			Properties map[string]any `json:"properties"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF is not valid JSON: %v", err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("want 1 SARIF run, got %d", len(doc.Runs))
	}
	props := doc.Runs[0].Properties
	if _, ok := props["wallClockSeconds"]; !ok {
		t.Error("SARIF should record wallClockSeconds")
	}
	if _, ok := props["budgetSeconds"]; !ok {
		t.Error("SARIF should record budgetSeconds")
	}
}
