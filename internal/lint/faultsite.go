package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// FaultSiteAnalyzer keeps the fault-injection surface (RESILIENCE.md) honest:
// every faultinject.Hit/Writer call must use a string-literal site that is
// registered in faultinject.Registry, marked at exactly one injection point
// per package, and armed by at least one test in its package — and test
// files that arm a site which no longer exists in the registry are errors
// too. The test side is checked by scanning the package's raw _test.go files
// (the loader excludes them by design), so findings there are reported with
// explicit positions. The faultinject package itself is exempt from the
// usage checks (its tests exercise the parser with synthetic sites); there
// the analyzer instead verifies that every registered site still has an
// injection point somewhere in the module.
var FaultSiteAnalyzer = &Analyzer{
	Name: "faultsite",
	Doc:  "verifies faultinject sites are literal, registered, unique, test-armed, and that tests arm only existing sites",
	Run:  runFaultSite,
}

const faultinjectSuffix = "/internal/resilience/faultinject"

func runFaultSite(pass *Pass) {
	registry := faultRegistry(pass)
	if registry == nil {
		return // module has no faultinject package; nothing to validate
	}
	if strings.HasSuffix(pass.Pkg.Path, faultinjectSuffix) {
		checkRegistryMarked(pass, registry)
		return
	}
	sites := siteCalls(pass, pass.Pkg)
	testText := packageTestText(pass.Pkg.Dir)

	seen := make(map[string]token.Pos)
	for _, sc := range sites {
		if sc.site == "" {
			pass.Reportf(sc.pos, "faultinject site must be a string literal so tests and the registry can reference it")
			continue
		}
		if _, ok := registry[sc.site]; !ok {
			pass.Reportf(sc.pos, "fault site %q is not registered in faultinject.Registry; add it with a description", sc.site)
		}
		if first, dup := seen[sc.site]; dup {
			pass.Reportf(sc.pos, "fault site %q is already marked at %s; every site needs exactly one injection point",
				sc.site, pass.Fset.Position(first))
		} else {
			seen[sc.site] = sc.pos
		}
		if !testTextReferences(testText, sc.site) {
			pass.Reportf(sc.pos, "fault site %q is not armed by any test in %s; recovery paths need coverage",
				sc.site, filepath.Base(pass.Pkg.Dir))
		}
	}
	for _, ref := range testSiteRefs(testText) {
		if _, ok := registry[ref.site]; !ok {
			pass.ReportAt(ref.file, ref.line, 1,
				"test arms fault site %q, which is not in faultinject.Registry; the injection point is gone or renamed", ref.site)
		}
	}
}

// siteCall is one faultinject.Hit/Writer call; site is "" when the argument
// is not a string literal.
type siteCall struct {
	pos  token.Pos
	site string
}

// siteCalls collects the Hit/Writer calls of one package.
func siteCalls(pass *Pass, pkg *Package) []siteCall {
	var out []siteCall
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := resolvedFunc(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), faultinjectSuffix) {
				return true
			}
			if fn.Name() != "Hit" && fn.Name() != "Writer" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			sc := siteCall{pos: call.Pos()}
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					sc.site = s
				}
			}
			out = append(out, sc)
			return true
		})
	}
	return out
}

// faultRegistry parses faultinject.Registry from the loaded module and
// returns site -> key position.
func faultRegistry(pass *Pass) map[string]token.Pos {
	pkg := pass.Mod.Lookup(pass.Mod.ModPath + faultinjectSuffix)
	if pkg == nil {
		return nil
	}
	reg := make(map[string]token.Pos)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if name.Name != "Registry" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range cl.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							reg[s] = lit.Pos()
						}
					}
				}
			}
			return true
		})
	}
	return reg
}

// checkRegistryMarked runs only on the faultinject package: every registered
// site must still have a Hit/Writer call somewhere in the module.
func checkRegistryMarked(pass *Pass, registry map[string]token.Pos) {
	marked := make(map[string]bool)
	for _, pkg := range pass.Mod.Packages {
		for _, sc := range siteCalls(pass, pkg) {
			if sc.site != "" {
				marked[sc.site] = true
			}
		}
	}
	for site, pos := range registry {
		if !marked[site] {
			pass.Reportf(pos, "registered fault site %q has no faultinject.Hit/Writer call in the module; remove the entry or restore the injection point", site)
		}
	}
}

// testFileText is the scanned content of one _test.go file.
type testFileText struct {
	path  string
	lines []string
}

// packageTestText reads the raw _test.go files of a package directory.
func packageTestText(dir string) []testFileText {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []testFileText
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		out = append(out, testFileText{
			path:  filepath.Join(dir, e.Name()),
			lines: strings.Split(string(data), "\n"),
		})
	}
	return out
}

func testTextReferences(files []testFileText, site string) bool {
	for _, f := range files {
		for _, line := range f.lines {
			if strings.Contains(line, site) {
				return true
			}
		}
	}
	return false
}

// testSiteRef is one fault-spec clause found in a test file.
type testSiteRef struct {
	file string
	line int
	site string
}

var quotedString = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

var faultKinds = map[string]bool{
	"panic": true, "error": true, "delay": true, "shortwrite": true,
}

// testSiteRefs extracts the sites armed by fault-spec strings in test files:
// any quoted string whose comma-separated clauses parse as site:kind[:...]
// with a known kind, including WISE_FAULTS=spec forms.
func testSiteRefs(files []testFileText) []testSiteRef {
	var out []testSiteRef
	for _, f := range files {
		for i, line := range f.lines {
			for _, m := range quotedString.FindAllStringSubmatch(line, -1) {
				for _, clause := range strings.Split(m[1], ",") {
					fields := strings.Split(strings.TrimSpace(clause), ":")
					if len(fields) < 2 || !faultKinds[fields[1]] {
						continue
					}
					site := strings.TrimPrefix(fields[0], "WISE_FAULTS=")
					if site == "" {
						continue
					}
					out = append(out, testSiteRef{file: f.path, line: i + 1, site: site})
				}
			}
		}
	}
	return out
}
