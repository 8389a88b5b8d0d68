package analysis

import (
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of the module sharpvet polices.
const ModulePath = "fabricsharp"

// deterministicPackages are the consensus-critical packages whose sealed
// output must be a pure function of the consensus stream: one unsorted map
// iteration or stray wall-clock read here ships as a cross-replica
// divergence (fatal Network.Err) under load. The list is the normative half
// of docs/determinism.md — change them together.
var deterministicPackages = map[string]bool{
	ModulePath + "/internal/codec":      true,
	ModulePath + "/internal/commit":     true,
	ModulePath + "/internal/conflict":   true,
	ModulePath + "/internal/consensus":  true,
	ModulePath + "/internal/core":       true,
	ModulePath + "/internal/kvstore":    true,
	ModulePath + "/internal/ledger":     true,
	ModulePath + "/internal/orderer":    true,
	ModulePath + "/internal/protocol":   true,
	ModulePath + "/internal/reexec":     true,
	ModulePath + "/internal/sched":      true,
	ModulePath + "/internal/statedb":    true,
	ModulePath + "/internal/trace":      true,
	ModulePath + "/internal/validation": true,
	ModulePath + "/internal/wire":       true,
}

// DeterministicScope is maporder's Scope. The contract covers whole packages
// only: code that must touch wall clocks or sockets lives in a package
// outside it, and TestDeterministicPackagesImportNoAmbientState keeps the
// clock, the environment and math/rand out of these.
func DeterministicScope(pkgPath string) bool { return deterministicPackages[pkgPath] }

// PackageScope returns a Scope covering the given module packages (named
// by their path below ModulePath, e.g. "internal/transport").
func PackageScope(rel ...string) Scope {
	set := make(map[string]bool, len(rel))
	for _, r := range rel {
		set[ModulePath+"/"+r] = true
	}
	return func(pkgPath string) bool { return set[pkgPath] }
}

// ModuleScope covers every module package (used by errdrop: fatal
// propagation paths must be checked module-wide, callers included).
func ModuleScope(pkgPath string) bool {
	return pkgPath == ModulePath || strings.HasPrefix(pkgPath, ModulePath+"/")
}

// DeterministicPackages lists the covered packages, for docs and the CLI's
// -contract listing.
func DeterministicPackages() []string {
	var out []string
	for p := range deterministicPackages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
