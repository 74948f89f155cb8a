// Package lint is wise-lint: a stdlib-only static-analysis driver with
// repo-specific analyzers that protect the invariants WISE's measurement and
// training pipelines depend on — deterministic randomness, epsilon-aware
// float comparison, paired obs spans, race-free worker patterns, and no
// silently dropped errors. LINTING.md documents each analyzer, the
// suppression syntax, and how to add a new one; cmd/wise-lint is the CLI
// that scripts/check.sh and CI gate on.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single package and reports
// findings through the Pass. Category, when set, groups the analyzer's SARIF
// rule for code-scanning dashboards.
type Analyzer struct {
	Name     string
	Doc      string
	Category string
	Run      func(*Pass)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		FloatEqAnalyzer,
		SpanHygieneAnalyzer,
		GoroutineSafetyAnalyzer,
		ErrDropAnalyzer,
		AtomicWriteAnalyzer,
		HotAllocAnalyzer,
		CtxPropagateAnalyzer,
		FaultSiteAnalyzer,
		IndexGuardAnalyzer,
		NumSafetyAnalyzer,
	}
}

// Select resolves a comma-separated analyzer subset against the full suite,
// preserving suite order. An empty string selects everything; an unknown name
// is an error (a typo'd -analyzers flag must not let CI pass vacuously).
func Select(names string) ([]*Analyzer, error) {
	all := All()
	if strings.TrimSpace(names) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, ok := byName[n]; !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run -list for the suite)", n)
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// Finding is one reported violation. Fix, when non-nil, is a
// machine-applicable edit that resolves the finding (applied by
// wise-lint -fix); it is deliberately excluded from the JSON report.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`

	Fix *SuggestedFix `json:"-"`
}

// String renders the finding in the file:line: [analyzer] message form the
// CLI prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Pass carries one analyzer's view of one package. Mod is the whole loaded
// module, for analyzers that need cross-package facts (faultsite reads the
// injection-site registry; ctxpropagate resolves module-internal callees).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Mod      *Module

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportfFix records a finding at pos carrying a machine-applicable fix.
func (p *Pass) ReportfFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	p.Reportf(pos, format, args...)
	(*p.findings)[len(*p.findings)-1].Fix = fix
}

// ReportAt records a finding at an explicit file position, for checks whose
// evidence lives outside the parsed file set (faultsite scans raw _test.go
// files, which the loader excludes by design).
func (p *Pass) ReportAt(file string, line, col int, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file     string
	line     int // line the directive is written on
	analyzer string
	reason   string
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts every //lint:ignore directive from a file. A
// directive without both an analyzer name and a reason is itself reported as
// a finding — suppressions must say why.
func parseIgnores(fset *token.FileSet, f *ast.File, out *[]Finding) []ignoreDirective {
	var dirs []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
			if len(fields) < 2 {
				*out = append(*out, Finding{
					Analyzer: "lint",
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
				})
				continue
			}
			dirs = append(dirs, ignoreDirective{
				file:     pos.Filename,
				line:     pos.Line,
				analyzer: fields[0],
				reason:   strings.Join(fields[1:], " "),
			})
		}
	}
	return dirs
}

// suppressed reports whether a finding is covered by a directive on the same
// line (trailing comment) or on the line directly above it.
func suppressed(f Finding, dirs []ignoreDirective) bool {
	for _, d := range dirs {
		if d.file != f.File {
			continue
		}
		if d.analyzer != f.Analyzer && d.analyzer != "*" {
			continue
		}
		if d.line == f.Line || d.line == f.Line-1 {
			return true
		}
	}
	return false
}

// RunPackage runs the given analyzers over one package and returns the
// unsuppressed findings, sorted by position. Directives that suppress
// nothing any of the run analyzers reported, or that name no analyzer in the
// suite, are themselves flagged by the unusedignore mini-check, so stale
// suppressions cannot linger.
func RunPackage(m *Module, pkg *Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: m.Fset, Pkg: pkg, Mod: m, findings: &raw}
		a.Run(pass)
	}
	var out []Finding // malformed-directive findings are never suppressible
	var dirs []ignoreDirective
	for _, f := range pkg.Files {
		dirs = append(dirs, parseIgnores(m.Fset, f, &out)...)
	}
	for _, f := range raw {
		if !suppressed(f, dirs) {
			out = append(out, f)
		}
	}
	out = append(out, unusedIgnores(dirs, raw, analyzers)...)
	sortFindings(out)
	return out
}

// unusedIgnores reports //lint:ignore directives that suppressed nothing,
// and directives naming an analyzer the suite does not have (a deleted or
// misspelled analyzer can never fire, so its directive is dead). A
// directive for a suite analyzer that did not run is exempt — a partial
// -analyzers run must not flag suppressions for the analyzers it skipped —
// and so are wildcard directives, which are rare and carry their own
// rationale.
func unusedIgnores(dirs []ignoreDirective, raw []Finding, analyzers []*Analyzer) []Finding {
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	suppressesAny := func(d ignoreDirective) bool {
		for _, f := range raw {
			if suppressed(f, []ignoreDirective{d}) {
				return true
			}
		}
		return false
	}
	var out []Finding
	for _, d := range dirs {
		var why string
		switch {
		case d.analyzer == "*":
			continue
		case !known[d.analyzer]:
			why = "names no analyzer in the suite"
		case !active[d.analyzer] || suppressesAny(d):
			continue
		default:
			why = "suppresses nothing"
		}
		out = append(out, Finding{
			Analyzer: "unusedignore",
			File:     d.file,
			Line:     d.line,
			Col:      1,
			Message:  fmt.Sprintf("//lint:ignore %s %s; remove the stale directive", d.analyzer, why),
		})
	}
	return out
}

// Run runs the analyzers over every loaded module package.
func Run(m *Module, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range m.Packages {
		out = append(out, RunPackage(m, pkg, analyzers)...)
	}
	sortFindings(out)
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		// Message is the final tiebreaker: sort.Slice is not stable, and the
		// report must be byte-identical at any loader job count — two
		// findings at the same position from the same analyzer must never
		// flip order between runs.
		return a.Message < b.Message
	})
}

// WriteJSON writes findings as a JSON array (always an array, never null).
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(fs)
}

// --- shared AST/type helpers used by several analyzers ---

// calleeFunc returns the identifier a call expression invokes (the function
// name for f(...) or the selected name for x.f(...)), or nil.
func calleeFunc(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}
