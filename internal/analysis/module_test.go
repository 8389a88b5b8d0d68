package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// ambientImports are the packages that bring a clock, the environment or a
// random stream into a file. A replica that reads any of them where sealed
// output is computed diverges from the others.
var ambientImports = map[string]bool{"time": true, "os": true, "math/rand": true, "math/rand/v2": true}

// importAllowlist names the deterministic files that may import one ambient
// package, each with the reason a reviewer accepted. The test trusts such a
// file as a whole.
var importAllowlist = map[string]struct{ pkg, reason string }{
	"internal/kvstore/db.go":      {"os", "the store's directory and snapshot files; nothing here reads the environment"},
	"internal/kvstore/wal.go":     {"os", "the write-ahead log file"},
	"internal/kvstore/spill.go":   {"os", "the unlinked append-only spill file"},
	"internal/orderer/service.go": {"time", "the real-time driver: its cut timer only proposes cut markers into the consensus stream"},
	"internal/trace/trace.go":     {"time", "stage timestamps are write-only telemetry; nothing deterministic reads them back"},
}

// TestDeterministicPackagesImportNoAmbientState holds the contract's
// packages to their inputs: outside the allowlist, no non-test file of
// DeterministicPackages imports a clock, the environment or math/rand, so
// time and randomness reach them only through a parameter (an Options seam,
// a metrics.Stopwatch, a timestamp fixed in the consensus stream). An
// allowlisted file that stops importing its package fails too, so the list
// only shrinks.
func TestDeterministicPackagesImportNoAmbientState(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool, len(importAllowlist))
	files := 0
	for _, pkg := range DeterministicPackages() {
		rel := strings.TrimPrefix(pkg, ModulePath+"/")
		entries, err := os.ReadDir(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			file := rel + "/" + name
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, file), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if !ambientImports[path] {
					continue
				}
				if allow, ok := importAllowlist[file]; ok && allow.pkg == path {
					used[file] = true
					continue
				}
				t.Errorf("%s imports %q: a deterministic package takes time, randomness and configuration as parameters, never from the process", file, path)
			}
		}
	}
	if files == 0 {
		t.Fatal("no files scanned: the package list or the module root is wrong")
	}
	for file, allow := range importAllowlist {
		if !used[file] {
			t.Errorf("%s is allowed %q (%s) but no longer imports it: drop the entry", file, allow.pkg, allow.reason)
		}
	}
}

// TestRealModuleIsClean is the integration gate: the shipped tree must
// carry zero unsuppressed findings, zero machinery errors (no stale or
// malformed //sharp: directives, no type errors), and a suppression
// inventory that byte-agrees with the tree. A violation introduced
// anywhere in the module fails this test the same way `sharpvet ./...`
// fails in CI.
func TestRealModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	res := Run(mod, Analyzers())
	for _, e := range res.Errors {
		t.Errorf("machinery error: %v", e)
	}
	for _, d := range res.Unsuppressed() {
		t.Errorf("unsuppressed finding: %v", d)
	}
	if len(res.Suppressed()) == 0 {
		t.Error("expected a non-empty suppression baseline (the tree carries reviewed //sharp: directives)")
	}

	diffs, err := DiffInventory(filepath.Join(root, "sharpvet.inventory"), res.Directives)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("inventory out of sync: %s (regenerate with `go run ./cmd/sharpvet -write-inventory ./...`)", d)
	}

	// Every suppression must carry prose: the directive parser enforces a
	// non-empty reason, so assert the invariant held end to end.
	for _, dir := range res.Directives {
		if dir.Reason == "" {
			t.Errorf("%s: directive with empty reason survived parsing", dir.File)
		}
	}
}
