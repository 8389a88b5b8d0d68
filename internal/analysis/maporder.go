package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map in deterministic packages. Go randomizes
// map iteration order per run, so any map range whose effect depends on
// visit order makes sealed bytes differ across replicas — the exact
// divergence class the replica-identical contract bans.
//
// One idiom stays silent, the sort-guard: the body only collects values into
// one slice, and the enclosing block sorts that slice before its next use.
// Every other map range carries a `//sharp:orderinvariant <reason>`
// directive, which lands in the checked-in suppression inventory where a
// reviewer reads it.
var MapOrder = &Analyzer{
	Name:  "maporder",
	Doc:   "flags range over maps in deterministic packages unless sort-guarded or suppressed",
	Scope: DeterministicScope,
	Run:   runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.Types[rs.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			// `for k = range m` would leave the last visited key in k.
			dst := collector(pass, rs.Body.List)
			if dst != nil && rs.Tok != token.ASSIGN && sortedBeforeNextUse(pass, file, rs, dst) {
				return true
			}
			pass.Reportf(rs.For, "range over map %s in deterministic code: iteration order is randomized; sort the keys, restructure, or annotate //sharp:orderinvariant <reason>", exprString(rs.X))
			return true
		})
	}
}

// collector recognizes the body of the sort-guard idiom:
//
//	for k, v := range m {
//		n := len(v)                  // iteration-local definitions,
//		if n > 0 {                   // if statements without init or else,
//			keys = append(keys, k)   // exactly one append into dst,
//		}                            // and continue
//	}
//	sort.Strings(keys)
//
// and returns dst. The append is the only write that outlives an iteration,
// so the body cannot observe visit order as long as every definition, guard
// and appended value is order-free: it names no dst, calls nothing but
// conversions and len/cap/min/max, receives from no channel and builds no
// closure. dst is found before any expression is checked, so a guard that
// reads it (`if len(keys) < 3`) is caught wherever the append sits.
func collector(pass *Pass, body []ast.Stmt) types.Object {
	var (
		dst   types.Object
		reads []ast.Expr
		walk  func([]ast.Stmt) bool
	)
	walk = func(list []ast.Stmt) bool {
		for _, stmt := range list {
			switch s := stmt.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
					return false
				}
				if s.Tok == token.DEFINE {
					reads = append(reads, s.Rhs[0])
					continue
				}
				obj, args := appendTo(pass, s)
				if obj == nil || dst != nil {
					return false
				}
				dst, reads = obj, append(reads, args...)
			case *ast.IfStmt:
				if s.Init != nil || s.Else != nil {
					return false
				}
				reads = append(reads, s.Cond)
				if !walk(s.Body.List) {
					return false
				}
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if !walk(body) || dst == nil {
		return nil
	}
	for _, e := range reads {
		if !orderFree(pass, e, dst) {
			return nil
		}
	}
	return dst
}

// appendTo returns v and args when s is `v = append(v, args…)`.
func appendTo(pass *Pass, s *ast.AssignStmt) (types.Object, []ast.Expr) {
	id, ok := s.Lhs[0].(*ast.Ident)
	call, isCall := unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok || !isCall || s.Tok != token.ASSIGN || !isBuiltin(pass, call, "append") || len(call.Args) < 2 {
		return nil, nil
	}
	obj := pass.Info.Uses[id]
	if base, ok := unparen(call.Args[0]).(*ast.Ident); !ok || obj == nil || pass.Info.Uses[base] != obj {
		return nil, nil
	}
	return obj, call.Args[1:]
}

// orderFree reports whether e reads nothing another iteration wrote and
// has no effect another iteration could see (see collector).
func orderFree(pass *Pass, e ast.Expr, dst types.Object) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			ok = pass.Info.Uses[x] != dst
		case *ast.CallExpr:
			tv := pass.Info.Types[x.Fun]
			ok = tv.IsType() || isBuiltin(pass, x, "len") || isBuiltin(pass, x, "cap") ||
				isBuiltin(pass, x, "min") || isBuiltin(pass, x, "max")
		case *ast.UnaryExpr:
			ok = x.Op != token.ARROW
		case *ast.FuncLit:
			ok = false
		}
		return ok
	})
	return ok
}

// sortedBeforeNextUse scans the statements after rs in its enclosing block:
// the first one referencing obj must be a sort call over it.
func sortedBeforeNextUse(pass *Pass, file *ast.File, rs *ast.RangeStmt, obj types.Object) bool {
	block := enclosingBlock(file, rs)
	if block == nil {
		return false
	}
	idx := -1
	for i, stmt := range block.List {
		if stmt == ast.Stmt(rs) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, stmt := range block.List[idx+1:] {
		if !references(pass, stmt, obj) {
			continue
		}
		return isSortCallOver(pass, stmt, obj)
	}
	return false // never sorted (or never used again — then why collect?)
}

// isSortCallOver reports whether stmt is a call into package sort or
// slices mentioning obj among its arguments.
func isSortCallOver(pass *Pass, stmt ast.Stmt, obj types.Object) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[pkgID].(*types.PkgName)
	if !ok {
		return false
	}
	if p := pn.Imported().Path(); p != "sort" && p != "slices" {
		return false
	}
	for _, arg := range call.Args {
		if references(pass, arg, obj) {
			return true
		}
	}
	return false
}

// isBuiltin reports whether call invokes the named predeclared function.
func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// references reports whether node mentions obj.
func references(pass *Pass, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// enclosingBlock returns the block whose statement list directly contains n.
func enclosingBlock(file *ast.File, n ast.Node) *ast.BlockStmt {
	var found *ast.BlockStmt
	ast.Inspect(file, func(cand ast.Node) bool {
		if found != nil {
			return false
		}
		b, ok := cand.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for _, stmt := range b.List {
			if stmt == n {
				found = b
				return false
			}
		}
		return true
	})
	return found
}

// exprString renders a short source-ish form of an expression for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(…)"
	case *ast.IndexExpr:
		return exprString(x.X) + "[…]"
	case *ast.ParenExpr:
		return exprString(x.X)
	default:
		return "expression"
	}
}
