package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"wise/internal/resilience"
)

// The on-disk fact cache (LINTING.md "v4 incremental engine"). Each entry
// holds the post-suppression findings of one analyzer tier over one package,
// keyed by a content hash that covers everything the tier's result can
// depend on:
//
//   - local tier (package-scoped analyzers): the package's non-test sources
//     and, transitively, the sources of its module-internal imports — a
//     change in a dependency can change type information and therefore
//     findings, so dependency keys chain into the package key;
//   - module tier (ModuleFacts analyzers): additionally the whole-module
//     state — every package's source key, every _test.go file (faultsite
//     reads raw test files), and go.mod — because interprocedural facts
//     (entry-held lock sets, call-graph summaries, the fault-site registry)
//     flow from *callers*, which a per-package dependency cone cannot see.
//
// Keys also cover the schema version, the Go toolchain version, and the
// names of the analyzers in the tier, so a subset run can never serve
// another subset's findings. Any unreadable, truncated, corrupt, or
// mismatched entry is silently a miss: the engine re-analyzes, never
// crashes, and never reports a stale finding.

// cacheSchema versions the entry format AND the analyzers' semantics: bump
// it whenever an analyzer's rules, the suppression machinery, or the entry
// layout change, so stale caches invalidate wholesale. A variable (not a
// const) so tests can prove the schema-bump-means-full-miss property.
var cacheSchema = 2

// factCache is a handle on one cache directory. A nil *factCache is a valid
// always-miss, never-store cache, which is how the engine runs when -cache
// is off.
type factCache struct {
	dir string // <cache root>/v<schema>
}

// openFactCache prepares the versioned subdirectory under root. Errors are
// returned (not swallowed): an unusable -cache DIR is a usage error the CLI
// must surface, not a silent slow run.
func openFactCache(root string) (*factCache, error) {
	if root == "" {
		return nil, nil
	}
	dir := filepath.Join(root, fmt.Sprintf("v%d", cacheSchema))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lint: creating cache dir: %w", err)
	}
	return &factCache{dir: dir}, nil
}

// cacheEntry is the JSON payload of one tier×package entry. Findings carry
// module-root-relative paths so a cache persisted in CI is valid across
// checkouts at different absolute paths; Key doubles as a corruption check
// (an entry renamed or partially copied onto the wrong key is a miss).
type cacheEntry struct {
	Schema   int       `json:"schema"`
	Key      string    `json:"key"`
	Findings []Finding `json:"findings"`
}

func (c *factCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// load returns the cached findings for key (with paths rehydrated against
// root) and whether the lookup hit. Every failure mode — missing file,
// truncated JSON, schema drift, key mismatch — is a miss.
func (c *factCache) load(root, key string) ([]Finding, bool) {
	if c == nil {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Schema != cacheSchema || e.Key != key {
		return nil, false
	}
	out := make([]Finding, len(e.Findings))
	for i, f := range e.Findings {
		f.File = filepath.Join(root, filepath.FromSlash(f.File))
		out[i] = f
	}
	return out, true
}

// store persists one tier's findings under key. Best-effort: a write failure
// (disk full, permissions) costs only future cache hits, so it is not
// propagated. The write is atomic via internal/resilience — a crash mid-store
// leaves either no entry or a complete one, never a truncated file for the
// next run to trip on (and load treats truncation as a miss anyway).
func (c *factCache) store(root, key string, findings []Finding) {
	if c == nil {
		return
	}
	rel := make([]Finding, len(findings))
	for i, f := range findings {
		if r, err := filepath.Rel(root, f.File); err == nil {
			f.File = filepath.ToSlash(r)
		}
		f.Fix = nil // fixes hold AST positions; never meaningful across runs
		rel[i] = f
	}
	e := cacheEntry{Schema: cacheSchema, Key: key, Findings: rel}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	//lint:ignore errdrop cache writes are best-effort: a failed store costs a future hit, not correctness
	resilience.AtomicWriteFile(c.path(key), data, 0o644)
}

// --- key derivation ---

// pkgMeta is the scan-phase view of one package directory: enough to derive
// cache keys and the dependency DAG without parsing function bodies or
// type-checking anything.
type pkgMeta struct {
	Path      string   // import path
	Dir       string   // absolute directory
	SrcFiles  []string // non-test .go files, sorted base names
	TestFiles []string // _test.go files, sorted base names
	Imports   []string // module-internal imports, sorted

	srcHash  string   // content hash of SrcFiles
	testHash string   // content hash of TestFiles
	depKey   string   // srcHash chained with all transitive deps' depKeys
	deps     []string // == Imports (alias for scheduling)
}

func hashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		_, _ = h.Write([]byte(p)) // hash.Hash.Write never fails
		_, _ = h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashFiles hashes file names and contents (in the given sorted order) so
// renames, additions, and edits all change the hash.
func hashFiles(dir string, names []string) (string, error) {
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		_, _ = fmt.Fprintf(h, "%s\x00%d\x00", name, len(data)) // hash.Hash.Write never fails
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tierNames renders an analyzer tier as a stable key component.
func tierNames(tier []*Analyzer) string {
	names := make([]string, len(tier))
	for i, a := range tier {
		names[i] = a.Name
	}
	sort.Strings(names)
	return hashStrings(names...)
}

// computeDepKeys derives every package's depKey — its source hash chained
// with the depKeys of its module-internal imports — walking the DAG in the
// given topological order. This is the "content hash of the package plus the
// hashes of its dependencies' facts" from LINTING.md: an edit anywhere in a
// package's import cone changes its key and re-runs it and its reverse
// dependencies, and nothing else.
func computeDepKeys(metas map[string]*pkgMeta, order []string) {
	for _, path := range order {
		m := metas[path]
		parts := []string{"dep", m.Path, m.srcHash}
		for _, dep := range m.Imports {
			if d := metas[dep]; d != nil {
				parts = append(parts, dep, d.depKey)
			}
		}
		m.depKey = hashStrings(parts...)
	}
}

// localKey keys the package-scoped tier: toolchain + schema + tier + the
// package's dependency-cone content.
func localKey(m *pkgMeta, tier string) string {
	return hashStrings("local", fmt.Sprint(cacheSchema), runtime.Version(), tier, m.depKey)
}

// moduleKey keys the ModuleFacts tier: everything localKey covers plus the
// module-wide state hash (all package cones, all test files, go.mod).
func moduleKey(m *pkgMeta, tier, moduleState string) string {
	return hashStrings("module", fmt.Sprint(cacheSchema), runtime.Version(), tier, m.depKey, moduleState)
}

// moduleStateHash folds the whole module into one hash for the module tier:
// any source or test-file change anywhere invalidates every module-tier
// entry, which is exactly the soundness bar interprocedural facts demand.
func moduleStateHash(metas map[string]*pkgMeta, gomodHash string) string {
	paths := make([]string, 0, len(metas))
	for p := range metas {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	parts := []string{"modstate", gomodHash}
	for _, p := range paths {
		m := metas[p]
		parts = append(parts, p, m.depKey, m.testHash)
	}
	return hashStrings(parts...)
}
