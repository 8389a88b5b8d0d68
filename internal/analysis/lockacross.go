package analysis

import (
	"go/ast"
	"go/types"
	"maps"
)

// LockAcross flags blocking communication performed while a sync.Mutex or
// RWMutex is held, in the transport and node packages: a channel send, a
// consensus Submit, or a socket write (transport.Conn / net.Conn
// Send/Write) executed between Lock and Unlock. This is the deadlock shape
// the Raft outboxes exist to avoid — a blocked receiver (or a dead TCP
// peer) wedges the lock, and every other goroutine needing it wedges
// behind it, including the one that would have drained the channel.
//
// Tracking is linear per function body (source order; each branch of an
// if walked from the locks held before it, a branch that returns, panics,
// breaks, continues or jumps leaving nothing behind; other branch bodies
// inherited; a defer'd Unlock pinning the lock for the rest of the
// function); goroutine and closure bodies are analyzed with their own
// empty lock set, since they run on a different stack. Channel sends in a
// select carrying a default clause are non-blocking and stay silent.
var LockAcross = &Analyzer{
	Name:  "lockacross",
	Doc:   "flags channel sends, Submit, and socket writes performed while a sync mutex is held (transport, node, trace)",
	Scope: PackageScope("internal/transport", "internal/node", "internal/trace"),
	Run:   runLockAcross,
}

func runLockAcross(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			w := &lockWalker{pass: pass, held: map[string]bool{}}
			w.walkStmts(fd.Body.List)
			return false // nested FuncLits get fresh walkers from within
		})
	}
}

type lockWalker struct {
	pass *Pass
	held map[string]bool // receiver expression -> locked
}

// anyHeld returns the lexicographically first held lock (deterministic
// tool output even when several are held at once).
func (w *lockWalker) anyHeld() (string, bool) {
	best := ""
	for k, v := range w.held {
		if v && (best == "" || k < best) {
			best = k
		}
	}
	return best, best != ""
}

func (w *lockWalker) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		w.walkStmt(s)
	}
}

func (w *lockWalker) walkStmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, kind, ok := mutexOp(w.pass, s.X); ok {
			switch kind {
			case lockOp:
				w.held[recv] = true
			case unlockOp:
				delete(w.held, recv)
			}
			return
		}
		w.checkExpr(s.X)
	case *ast.DeferStmt:
		if _, kind, ok := mutexOp(w.pass, s.Call); ok && kind == unlockOp {
			return // held until return: keep it in the set
		}
		w.checkExpr(s.Call)
	case *ast.GoStmt:
		// The spawned body runs on its own stack without our locks; its
		// sends are its own problem (fresh walker via checkExpr's FuncLit
		// handling). The go statement itself doesn't block.
		w.checkFuncLits(s.Call)
	case *ast.SendStmt:
		w.flagSend(s, false)
		w.checkExpr(s.Chan)
		w.checkExpr(s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.checkExpr(s.Cond)
		// Each branch starts from the locks held here. A branch that cannot
		// fall through changes nothing after the if; what the others leave
		// held stays held.
		before, after := w.held, map[string]bool{}
		branch := func(body ast.Stmt) {
			w.held = maps.Clone(before)
			w.walkStmt(body)
			if !terminates(body) {
				maps.Copy(after, w.held)
			}
		}
		branch(s.Body)
		if s.Else != nil {
			branch(s.Else)
		} else {
			maps.Copy(after, before)
		}
		w.held = after
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond)
		}
		w.walkStmts(s.Body.List)
		if s.Post != nil {
			w.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		w.checkExpr(s.X)
		w.walkStmts(s.Body.List)
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				w.flagSend(send, hasDefault)
			}
			w.walkStmts(cc.Body)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.IncDecStmt:
		w.checkExpr(s.X)
	}
}

// terminates reports whether stmt cannot fall through to the statement
// after it: it ends in a return, a panic, or a break, continue or goto.
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return len(s.List) > 0 && terminates(s.List[len(s.List)-1])
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminates(s.Else)
	case *ast.ExprStmt:
		call, ok := unparen(s.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func (w *lockWalker) flagSend(s *ast.SendStmt, nonBlocking bool) {
	if nonBlocking {
		return
	}
	if lock, held := w.anyHeld(); held {
		w.pass.Reportf(s.Arrow, "channel send while %s is held: a blocked receiver wedges the lock and everything queued behind it; release the lock or use a bounded non-blocking outbox", lock)
	}
}

// checkExpr scans an expression for blocking target calls under a held
// lock, giving nested function literals their own fresh walker.
func (w *lockWalker) checkExpr(expr ast.Expr) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			inner := &lockWalker{pass: w.pass, held: map[string]bool{}}
			inner.walkStmts(x.Body.List)
			return false
		case *ast.CallExpr:
			if lock, held := w.anyHeld(); held {
				if name, bad := blockingTargetCall(w.pass, x); bad {
					w.pass.Reportf(x.Pos(), "%s while %s is held: a slow or dead peer wedges the lock; move the I/O outside the critical section", name, lock)
				}
			}
		}
		return true
	})
}

// checkFuncLits only descends into function literals (used for go
// statements, whose immediate call does not block the current goroutine).
func (w *lockWalker) checkFuncLits(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			inner := &lockWalker{pass: w.pass, held: map[string]bool{}}
			inner.walkStmts(fl.Body.List)
			return false
		}
		return true
	})
}

type mutexOpKind int

const (
	lockOp mutexOpKind = iota
	unlockOp
)

// mutexOp recognizes x.Lock / x.RLock / x.Unlock / x.RUnlock on
// sync.Mutex/RWMutex (directly or through embedding), returning a stable
// key for the receiver expression.
func mutexOp(pass *Pass, expr ast.Expr) (string, mutexOpKind, bool) {
	call, ok := unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", 0, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", 0, false
	}
	recvType := sig.Recv().Type()
	if ptr, isPtr := recvType.(*types.Pointer); isPtr {
		recvType = ptr.Elem()
	}
	named, ok := recvType.(*types.Named)
	if !ok || named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex" {
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return exprString(sel.X), lockOp, true
	case "Unlock", "RUnlock":
		return exprString(sel.X), unlockOp, true
	}
	return "", 0, false
}

// blockingTargetCall reports calls that block on a remote party: Submit on
// a module type (consensus commit-wait), and Send/Write on transport or
// net connections.
func blockingTargetCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recvPkg := typePackage(sig.Recv().Type())
	if recvPkg == "" {
		return "", false
	}
	inModule := recvPkg == ModulePath || len(recvPkg) > len(ModulePath) && recvPkg[:len(ModulePath)+1] == ModulePath+"/"
	switch fn.Name() {
	case "Submit":
		if inModule {
			return "Submit (commit-wait)", true
		}
	case "Send", "Write", "SendMsg":
		if recvPkg == "net" || recvPkg == ModulePath+"/internal/transport" {
			return fn.Name() + " (socket write)", true
		}
	}
	return "", false
}

// typePackage returns the defining package path of a (possibly pointer)
// named or interface receiver type.
func typePackage(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}
