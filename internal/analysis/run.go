package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
)

// A Result is one full run of the suite over a module.
type Result struct {
	// Diagnostics holds every finding, suppressed or not, sorted by
	// position. Unsuppressed() filters the gating subset.
	Diagnostics []Diagnostic
	// Directives holds every //sharp: directive found in the tree, with
	// File set module-relative (inventory key order).
	Directives []*Directive
	// Errors are contract violations of the machinery itself: malformed
	// or stale directives, type-check failures. Any entry fails the run
	// regardless of diagnostics.
	Errors []error
}

// Unsuppressed returns the findings no directive covers.
func (r *Result) Unsuppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Suppressed returns the findings a directive covers.
func (r *Result) Suppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Run executes every analyzer over every loaded package, matches
// suppression directives, and flags stale ones. It is the single entry
// point shared by cmd/sharpvet and the integration tests.
func Run(mod *Module, analyzers []*Analyzer) *Result {
	res := &Result{}
	for _, err := range mod.TypeErrors() {
		res.Errors = append(res.Errors, fmt.Errorf("type error: %v", err))
	}

	var dirs []*Directive
	for _, pkg := range mod.Packages {
		pkgDirs, errs := collectDirectives(mod.Fset, pkg.Files)
		res.Errors = append(res.Errors, errs...)
		for _, d := range pkgDirs {
			d.File = moduleRel(mod.Root, d.Pos.Filename)
		}
		dirs = append(dirs, pkgDirs...)

		for _, a := range analyzers {
			if !a.Scope(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     mod.Fset,
				Files:    pkg.Files,
				Info:     pkg.Info,
				report: func(diag Diagnostic) {
					res.Diagnostics = append(res.Diagnostics, diag)
				},
			}
			a.Run(pass)
		}
	}

	// Match directives to diagnostics. A directive may cover several
	// findings on its line (e.g. two map ranges in one statement); every
	// directive must cover at least one.
	for i := range res.Diagnostics {
		diag := &res.Diagnostics[i]
		for _, d := range dirs {
			if d.covers(diag.Analyzer, diag.Pos) {
				diag.Suppressed = true
				diag.Reason = d.Reason
				d.used = true
				break
			}
		}
	}
	for _, d := range dirs {
		if !d.used {
			res.Errors = append(res.Errors, fmt.Errorf(
				"%s: stale suppression: //sharp: directive for %q silences no diagnostic", fmtPos(d.Pos), d.Analyzer))
		}
	}
	res.Directives = dirs

	// Normalize diagnostic paths module-relative and order the report.
	for i := range res.Diagnostics {
		res.Diagnostics[i].Pos.Filename = moduleRel(mod.Root, res.Diagnostics[i].Pos.Filename)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

func moduleRel(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return filepath.ToSlash(rel)
	}
	return filename
}
