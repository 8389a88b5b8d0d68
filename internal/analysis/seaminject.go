package analysis

import (
	"go/ast"
	"go/types"
)

// SeamInject enforces the injected-seam discipline for randomness and
// clocks in deterministic files: a *rand.Rand or timer must flow in from
// an Options field owned by the caller, never be constructed inline.
// Inline construction either hides a nondeterministic seed or plants a
// wall-clock-driven event source in code whose output must be a pure
// function of the consensus stream.
//
// Flagged constructors: math/rand New/NewSource/NewZipf and rand.Rand
// composite literals; time.NewTimer/NewTicker/After/Tick/AfterFunc.
var SeamInject = &Analyzer{
	Name:  "seaminject",
	Doc:   "flags inline rand.Rand/clock construction in deterministic packages (inject via Options instead)",
	Scope: DeterministicScope,
	Run:   runSeamInject,
}

var seamBans = map[string]map[string]bool{
	"math/rand":    {"New": true, "NewSource": true, "NewZipf": true},
	"math/rand/v2": {"New": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true},
	"time":         {"NewTimer": true, "NewTicker": true, "After": true, "Tick": true, "AfterFunc": true},
}

func runSeamInject(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				obj := pass.Info.Uses[x]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if _, isFunc := obj.(*types.Func); !isFunc {
					return true
				}
				if banned := seamBans[obj.Pkg().Path()]; banned[obj.Name()] {
					pass.Reportf(x.Pos(), "inline %s.%s in deterministic code: randomness and clocks must arrive via an injected Options seam, not be constructed here", obj.Pkg().Name(), obj.Name())
				}
			case *ast.CompositeLit:
				if t := pass.Info.Types[x].Type; t != nil && isRandRand(t) {
					pass.Reportf(x.Pos(), "inline rand.Rand literal in deterministic code: inject the generator via an Options seam")
				}
			}
			return true
		})
	}
}

func isRandRand(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	return (pkg == "math/rand" || pkg == "math/rand/v2") && named.Obj().Name() == "Rand"
}
