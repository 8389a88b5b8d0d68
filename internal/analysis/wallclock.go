package analysis

import (
	"go/ast"
	"go/types"
)

// WallClock flags ambient-nondeterminism reads in deterministic files:
// wall-clock queries (time.Now, time.Since, time.Until), the global
// math/rand stream, and environment reads. Replicas run these at different
// instants with different process state, so any value flowing from them
// into a sealed digest diverges. Time and randomness must arrive through
// injected seams (an Options field carrying a *rand.Rand or timestamps
// already fixed in the consensus stream) — the explicit-rng discipline the
// wire transport PR established.
var WallClock = &Analyzer{
	Name:  "wallclock",
	Doc:   "flags time.Now/Since/Until, global math/rand, and env reads in deterministic packages",
	Scope: DeterministicScope,
	Run:   runWallClock,
}

// wallClockBans maps package path -> banned package-level names. An empty
// set means "every package-level function" (global math/rand: any call
// advances the shared process-wide stream).
var wallClockBans = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os": {
		"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	},
	"math/rand":    nil,
	"math/rand/v2": nil,
}

// randConstructors are the math/rand names seaminject owns; wallclock
// leaves them alone so one site yields one finding.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runWallClock(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if _, isFunc := obj.(*types.Func); !isFunc {
				return true
			}
			banned, watched := wallClockBans[obj.Pkg().Path()]
			if !watched {
				return true
			}
			if banned == nil {
				// Global math/rand: only package-level functions draw from
				// the shared stream; *rand.Rand methods are injected seams.
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				if randConstructors[obj.Name()] {
					return true
				}
			} else if !banned[obj.Name()] {
				return true
			}
			pass.Reportf(id.Pos(), "%s.%s in deterministic code: replicas must compute sealed output from the consensus stream alone; inject the value through an Options seam", obj.Pkg().Name(), obj.Name())
			return true
		})
	}
}
