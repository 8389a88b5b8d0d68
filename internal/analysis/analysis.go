// Package analysis is sharpvet's engine: a stdlib-only static-analysis
// driver (go/parser + go/types, no x/tools) that loads the whole module,
// resolves types, and enforces the replica-identical determinism contract
// over consensus-critical packages. See docs/determinism.md for the written
// contract and cmd/sharpvet for the CLI.
//
// The design mirrors golang.org/x/tools/go/analysis in miniature — named
// analyzers receive a type-checked package via a Pass and report position
// -ed diagnostics — but stays within the standard library so the module's
// no-dependency rule holds.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one determinism check. Run is invoked once per loaded
// package its Scope covers.
type Analyzer struct {
	// Name is the analyzer's identifier: the token used in
	// "//sharp:allow <name> <reason>" directives and diagnostic output.
	Name string
	// Doc is a one-line description printed by `sharpvet -help`.
	Doc string
	// Scope names the packages the analyzer polices.
	Scope Scope
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// A Scope decides whether a package, named by its import path, participates
// in an analyzer's check. The contract covers whole packages only.
type Scope func(pkgPath string) bool

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: an analyzer, a position, a message, and —
// after suppression matching — the directive that silenced it, if any.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string

	// Suppressed is set by the driver when a matching directive covers
	// the diagnostic's line.
	Suppressed bool
	// Reason is the suppressing directive's justification (set iff
	// Suppressed).
	Reason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in deterministic order. sharpvet runs
// exactly this set; tests index it by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		MapOrder,
		ErrDrop,
		LockAcross,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// AnalyzerByName returns the named analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
