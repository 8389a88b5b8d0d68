package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags dropped errors on fatal-propagation paths, module-wide:
// the wire codec (Encode*/Decode* in internal/wire), kvstore ApplyBatch,
// and Persist hooks. Each of these failing means a replica is about to
// diverge from the sealed chain or lose durable state, so these errors must
// ride the fatal Network.Err path, never vanish into an ignored return. A call counts as dropped when it stands
// alone as a statement, runs under go/defer, or binds its error result to
// the blank identifier.
var ErrDrop = &Analyzer{
	Name:  "errdrop",
	Doc:   "flags unchecked errors from wire Encode/Decode, kvstore.ApplyBatch, and Persist hooks",
	Scope: ModuleScope,
	Run:   runErrDrop,
}

func runErrDrop(pass *Pass) {
	for _, file := range pass.Files {
		if !pass.InScope(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					reportDropped(pass, call, nil)
				}
			case *ast.GoStmt:
				reportDropped(pass, s.Call, nil)
			case *ast.DeferStmt:
				reportDropped(pass, s.Call, nil)
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 {
					if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
						reportDropped(pass, call, s.Lhs)
					}
				}
			}
			return true
		})
	}
}

// reportDropped flags call if it is a target whose error results are all
// discarded. lhs is nil for statement/go/defer position (everything
// discarded) or the assignment's left-hand sides.
func reportDropped(pass *Pass, call *ast.CallExpr, lhs []ast.Expr) {
	name, ok := errDropTarget(pass, call)
	if !ok {
		return
	}
	sig, ok := calleeSignature(pass, call)
	if !ok {
		return
	}
	errIdx := errorResultIndexes(sig)
	if len(errIdx) == 0 {
		return
	}
	if lhs != nil {
		// Tuple-aware: result i binds to lhs[i]. A mismatched arity means
		// the compiler already complains; stay quiet.
		if len(lhs) != sig.Results().Len() {
			return
		}
		for _, i := range errIdx {
			id, isIdent := lhs[i].(*ast.Ident)
			if !isIdent || id.Name != "_" {
				return // error is bound to a real variable: checked enough
			}
		}
	}
	pass.Reportf(call.Pos(), "error from %s dropped: this is a fatal-propagation path (replica divergence or durable-state loss); propagate it to Network.Err", name)
}

// errDropTarget reports whether call's callee is one of the policed
// fatal-propagation entry points, returning a display name.
func errDropTarget(pass *Pass, call *ast.CallExpr) (string, bool) {
	obj := calleeObject(pass, call)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	pkgPath := obj.Pkg().Path()
	inModule := pkgPath == ModulePath || strings.HasPrefix(pkgPath, ModulePath+"/")
	name := obj.Name()
	switch {
	case pkgPath == ModulePath+"/internal/wire" &&
		(strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "Decode")):
		return "wire." + name, true
	case inModule && name == "ApplyBatch":
		return "ApplyBatch", true
	case inModule && name == "Persist":
		return "Persist", true
	}
	return "", false
}

// calleeObject resolves the called function, method, or func-valued field.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pass.Info.Uses[fun.Sel]
	}
	return nil
}

func calleeSignature(pass *Pass, call *ast.CallExpr) (*types.Signature, bool) {
	t := pass.Info.Types[call.Fun].Type
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func errorResultIndexes(sig *types.Signature) []int {
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			out = append(out, i)
		}
	}
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
