// wise-lint runs the repo-invariant static analyzer suite (internal/lint)
// over the module. It prints findings as file:line:col: [analyzer] message,
// exits 1 when any finding survives suppression, and 2 on load or usage
// errors. See LINTING.md for the analyzer catalogue, the //lint:ignore
// syntax, and the v2 dataflow engine.
//
// Usage:
//
//	wise-lint [-json file] [-sarif file] [-fix] [-analyzers a,b] [-budget d] [packages ...]
//
// Package patterns are directory-based: "./..." (or no arguments) lints the
// whole module; "./internal/ml" or "./internal/..." restricts the report to
// the matching packages. A pattern that names no directory is a usage error.
// The whole module is always loaded and type-checked (in parallel, one
// type-check worker per GOMAXPROCS) so cross-package analysis stays sound.
//
// -sarif writes the findings as a SARIF 2.1.0 log for CI code-scanning
// upload. -fix applies the suggested fixes (capacity hints, context
// threading), rewriting only files in which every finding has a fix; its
// exit code replaces the findings' own, and -json, -sarif and -budget still
// apply to the run, whose findings the reports record as found.
// -analyzers runs a comma-separated subset of the suite; an unknown name is a
// usage error (exit 2) so a typo cannot pass CI vacuously. -budget fails the
// run (exit 1) when linting took longer than the given duration; the
// measured wall-clock time and the budget are recorded in the SARIF run
// properties either way.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wise/internal/lint"
	"wise/internal/resilience"
)

func main() {
	jsonPath := flag.String("json", "", "also write findings as JSON to this file (- for stdout)")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (- for stdout)")
	fix := flag.Bool("fix", false, "apply suggested fixes; only files where every finding has a fix are rewritten")
	list := flag.Bool("list", false, "list the analyzer suite and exit")
	subset := flag.String("analyzers", "", "comma-separated analyzer subset to run (default: the full suite)")
	budget := flag.Duration("budget", 0, "fail if linting takes longer than this (0 = no budget)")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	// Resolve the analyzer subset before the (expensive) module load so a
	// typo'd -analyzers flag fails fast with a usage error.
	analyzers, err := lint.Select(*subset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wise-lint:", err)
		os.Exit(2)
	}

	// Directory arguments under a testdata/ tree are analyzer fixtures:
	// they sit outside the module walk and are loaded individually. All
	// other arguments filter the module-wide report and must name a real
	// directory — a typo'd pattern silently matching nothing would let CI
	// pass vacuously.
	var patterns, fixtureDirs []string
	for _, arg := range flag.Args() {
		if st, err := os.Stat(arg); err == nil && st.IsDir() && underTestdata(arg) {
			fixtureDirs = append(fixtureDirs, arg)
			continue
		}
		if err := validatePattern(arg); err != nil {
			fmt.Fprintln(os.Stderr, "wise-lint:", err)
			os.Exit(2)
		}
		patterns = append(patterns, arg)
	}

	start := time.Now()
	mod, err := lint.LoadModuleJobs(".", runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "wise-lint:", err)
		os.Exit(2)
	}
	root := mod.Root
	var findings []lint.Finding
	for _, dir := range fixtureDirs {
		pkg, err := mod.LoadFixture(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wise-lint:", err)
			os.Exit(2)
		}
		findings = append(findings, lint.RunPackage(mod, pkg, analyzers)...)
	}
	if len(patterns) > 0 || len(flag.Args()) == 0 {
		findings = append(findings, filterByPatterns(lint.Run(mod, analyzers), root, patterns)...)
	}
	elapsed := time.Since(start)
	code := 0
	if *fix {
		code = applyFixes(mod, findings)
	}

	// With -json - or -sarif -, stdout carries only the machine-readable
	// log so it pipes cleanly; the human-readable lines move to stderr.
	human := os.Stdout
	if *jsonPath == "-" || *sarifPath == "-" {
		human = os.Stderr
	}
	if !*fix {
		for _, f := range findings {
			//lint:ignore errdrop human only ever aliases os.Stdout or os.Stderr
			fmt.Fprintln(human, relFinding(root, f))
		}
	}
	if *jsonPath != "" || *sarifPath != "" {
		rel := make([]lint.Finding, len(findings))
		for i, f := range findings {
			rel[i] = f
			if r, err := filepath.Rel(root, f.File); err == nil {
				rel[i].File = r
			}
		}
		if *jsonPath != "" {
			var buf bytes.Buffer
			if err := lint.WriteJSON(&buf, rel); err != nil {
				fmt.Fprintln(os.Stderr, "wise-lint:", err)
				os.Exit(2)
			}
			writeReport(*jsonPath, buf.Bytes())
		}
		if *sarifPath != "" {
			props := map[string]any{"wallClockSeconds": elapsed.Seconds()}
			if *budget > 0 {
				props["budgetSeconds"] = budget.Seconds()
			}
			var buf bytes.Buffer
			if err := lint.WriteSARIF(&buf, analyzers, rel, props); err != nil {
				fmt.Fprintln(os.Stderr, "wise-lint:", err)
				os.Exit(2)
			}
			writeReport(*sarifPath, buf.Bytes())
		}
	}
	if !*fix && len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "wise-lint: %d finding(s)\n", len(findings))
		code = 1
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "wise-lint: run took %v, over the -budget of %v\n", elapsed.Round(time.Millisecond), *budget)
		code = max(code, 1)
	}
	os.Exit(code)
}

// writeReport writes a machine-readable report to path, with "-" meaning
// stdout. File writes go through the resilience layer so a crashed run never
// leaves a truncated log for CI to upload.
func writeReport(path string, data []byte) {
	if path == "-" {
		fmt.Print(string(data))
		return
	}
	if err := resilience.AtomicWriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wise-lint:", err)
		os.Exit(2)
	}
}

// validatePattern rejects package patterns that name no directory on disk.
// The module-wide tokens are always valid; anything else must resolve (after
// stripping a /... suffix) to an existing directory.
func validatePattern(p string) error {
	if p == "./..." || p == "..." || p == "all" {
		return nil
	}
	dir := strings.TrimSuffix(p, "/...")
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return fmt.Errorf("unknown package pattern %q: %s is not a directory in this module", p, dir)
	}
	return nil
}

// applyFixes rewrites the files whose findings all carry mechanical fixes and
// reports what was applied or skipped. Returns the process exit code: 0 when
// every finding was fixed, 1 when any file was refused.
func applyFixes(mod *lint.Module, findings []lint.Finding) int {
	write := func(path string, data []byte) error {
		return resilience.AtomicWriteFile(path, data, 0o644)
	}
	results, err := lint.ApplyFixes(mod.Fset, findings, write)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wise-lint:", err)
		return 2
	}
	code := 0
	for _, r := range results {
		file := r.File
		if rel, err := filepath.Rel(mod.Root, file); err == nil {
			file = rel
		}
		if len(r.Skipped) > 0 {
			code = 1
			fmt.Fprintf(os.Stderr, "wise-lint: %s: %d finding(s) have no mechanical fix; file left untouched\n", file, len(r.Skipped))
			for _, s := range r.Skipped {
				fmt.Fprintln(os.Stderr, "  "+s)
			}
			continue
		}
		fmt.Printf("wise-lint: %s: applied %d fix(es)\n", file, r.Applied)
	}
	return code
}

// underTestdata reports whether any element of the path is "testdata".
func underTestdata(path string) bool {
	abs, err := filepath.Abs(path)
	if err != nil {
		return false
	}
	for _, seg := range strings.Split(filepath.ToSlash(abs), "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// relFinding renders a finding with a root-relative path.
func relFinding(root string, f lint.Finding) string {
	if r, err := filepath.Rel(root, f.File); err == nil {
		f.File = r
	}
	return f.String()
}

// filterByPatterns keeps findings under the directories named by go-style
// package patterns. Empty args and "./..." mean everything.
func filterByPatterns(fs []lint.Finding, root string, patterns []string) []lint.Finding {
	var dirs []string // absolute dir prefixes; nil means keep all
	for _, p := range patterns {
		if p == "./..." || p == "..." || p == "all" {
			return fs
		}
		rec := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			p, rec = rest, true
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			continue
		}
		if rec {
			dirs = append(dirs, abs+string(filepath.Separator))
		}
		dirs = append(dirs, abs)
	}
	if len(patterns) == 0 || len(dirs) == 0 {
		return fs
	}
	var out []lint.Finding
	for _, f := range fs {
		dir := filepath.Dir(f.File)
		for _, d := range dirs {
			if dir == strings.TrimSuffix(d, string(filepath.Separator)) ||
				(strings.HasSuffix(d, string(filepath.Separator)) && strings.HasPrefix(dir+string(filepath.Separator), d)) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}
