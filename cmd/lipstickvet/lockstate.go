package main

import (
	"go/ast"
	"go/types"
)

// This file is the shared lock-state engine behind lockguard and
// lockedcall: a structural walk over a function body that tracks, at every
// expression, which mutexes are provably held on every path reaching it.
//
// The analysis is a dominance approximation, not a full CFG: statements are
// scanned in order; a conditional branch that terminates (returns, panics,
// breaks) does not contribute its lock changes to the state after the
// branch, and branches that fall through merge by intersection — a lock is
// "held" after an if/switch/select only if every surviving path holds it.
// defer mu.Unlock() releases at function exit and therefore never clears
// the in-body state; a goroutine literal starts with nothing held.

// holdKind distinguishes shared (RLock) from exclusive (Lock) holds.
type holdKind uint8

const (
	holdShared holdKind = iota
	holdExclusive
)

// lockSet maps a mutex expression (its printed form, e.g. "l.mu") to how
// it is held.
type lockSet map[string]holdKind

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// intersect keeps only mutexes held in both sets, at the weaker strength.
func intersect(a, b lockSet) lockSet {
	out := lockSet{}
	for k, ka := range a {
		if kb, ok := b[k]; ok {
			if ka == holdExclusive && kb == holdExclusive {
				out[k] = holdExclusive
			} else {
				out[k] = holdShared
			}
		}
	}
	return out
}

// scanner walks one function body maintaining the held-lock state and
// firing callbacks for field accesses and calls.
type scanner struct {
	info *types.Info
	// onSel fires for every selector expression; write reports whether the
	// selector appears in a store context (assignment target, ++/--,
	// address-taken, delete target).
	onSel func(sel *ast.SelectorExpr, held lockSet, write bool)
	// onCall fires for every call expression.
	onCall func(call *ast.CallExpr, held lockSet)
}

// scanFunc runs the scanner over a function body starting with no locks
// held.
func (s *scanner) scanFunc(body *ast.BlockStmt) {
	s.stmts(body.List, lockSet{})
}

func (s *scanner) stmts(list []ast.Stmt, h lockSet) lockSet {
	for _, st := range list {
		h = s.stmt(st, h)
	}
	return h
}

func (s *scanner) stmt(st ast.Stmt, h lockSet) lockSet {
	switch t := st.(type) {
	case nil:
		return h
	case *ast.ExprStmt:
		if mu, op, ok := s.lockOp(t.X); ok {
			s.expr(t.X, h, false)
			return applyLockOp(h, mu, op)
		}
		s.expr(t.X, h, false)
	case *ast.AssignStmt:
		for _, rhs := range t.Rhs {
			s.expr(rhs, h, false)
		}
		for _, lhs := range t.Lhs {
			if isBlank(lhs) {
				continue
			}
			s.expr(lhs, h, true)
		}
	case *ast.IncDecStmt:
		s.expr(t.X, h, true)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v, h, false)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred unlock releases at return, so the body keeps its
		// state. Other deferred calls are scanned with the current state —
		// close-on-exit defers observe at least what is held now.
		if _, op, ok := s.lockOp(t.Call); ok && (op == opUnlock || op == opRUnlock) {
			return h
		}
		s.expr(t.Call, h, false)
	case *ast.GoStmt:
		// A spawned goroutine holds nothing the parent holds.
		for _, arg := range t.Call.Args {
			s.expr(arg, h, false)
		}
		if fl, ok := t.Call.Fun.(*ast.FuncLit); ok {
			s.stmts(fl.Body.List, lockSet{})
		} else {
			s.expr(t.Call.Fun, h, false)
		}
	case *ast.ReturnStmt:
		for _, r := range t.Results {
			s.expr(r, h, false)
		}
	case *ast.SendStmt:
		s.expr(t.Chan, h, false)
		s.expr(t.Value, h, false)
	case *ast.LabeledStmt:
		return s.stmt(t.Stmt, h)
	case *ast.BlockStmt:
		return s.stmts(t.List, h)
	case *ast.IfStmt:
		h = s.stmt(t.Init, h)
		s.expr(t.Cond, h, false)
		thenOut := s.stmts(t.Body.List, h.clone())
		thenEnds := terminates(t.Body.List)
		if t.Else == nil {
			if thenEnds {
				return h
			}
			return intersect(h, thenOut)
		}
		elseOut := s.stmt(t.Else, h.clone())
		elseEnds := stmtTerminates(t.Else)
		switch {
		case thenEnds && elseEnds:
			return h // nothing after is reachable through this statement
		case thenEnds:
			return elseOut
		case elseEnds:
			return thenOut
		default:
			return intersect(thenOut, elseOut)
		}
	case *ast.ForStmt:
		h = s.stmt(t.Init, h)
		if t.Cond != nil {
			s.expr(t.Cond, h, false)
		}
		bodyOut := s.stmts(t.Body.List, h.clone())
		bodyOut = s.stmt(t.Post, bodyOut)
		return intersect(h, bodyOut)
	case *ast.RangeStmt:
		s.expr(t.X, h, false)
		bodyOut := s.stmts(t.Body.List, h.clone())
		return intersect(h, bodyOut)
	case *ast.SwitchStmt:
		h = s.stmt(t.Init, h)
		if t.Tag != nil {
			s.expr(t.Tag, h, false)
		}
		return s.clauses(t.Body.List, h)
	case *ast.TypeSwitchStmt:
		h = s.stmt(t.Init, h)
		s.stmt(t.Assign, h)
		return s.clauses(t.Body.List, h)
	case *ast.SelectStmt:
		return s.clauses(t.Body.List, h)
	}
	return h
}

// clauses scans case/comm clause bodies, merging the fall-out states of
// every non-terminating clause by intersection with the entry state.
func (s *scanner) clauses(list []ast.Stmt, h lockSet) lockSet {
	out := h
	for _, cl := range list {
		var body []ast.Stmt
		entry := h.clone()
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				s.expr(e, entry, false)
			}
			body = c.Body
		case *ast.CommClause:
			entry = s.stmt(c.Comm, entry)
			body = c.Body
		default:
			continue
		}
		clauseOut := s.stmts(body, entry)
		if !terminates(body) {
			out = intersect(out, clauseOut)
		}
	}
	return out
}

// expr walks an expression, firing callbacks. write marks the whole
// expression as a store target (assignment LHS and friends).
func (s *scanner) expr(e ast.Expr, h lockSet, write bool) {
	switch t := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		s.onSel(t, h, write)
		s.expr(t.X, h, write)
	case *ast.CallExpr:
		s.onCall(t, h)
		if isDeleteBuiltin(t) && len(t.Args) > 0 {
			// delete(m, k) mutates the map: the map operand is a store.
			s.expr(t.Args[0], h, true)
			for _, a := range t.Args[1:] {
				s.expr(a, h, false)
			}
			return
		}
		// For a method call x.m(...) the receiver x is a read, not part of
		// any store; only explicit arguments inherit read context.
		s.expr(t.Fun, h, false)
		for _, a := range t.Args {
			s.expr(a, h, false)
		}
	case *ast.UnaryExpr:
		// Taking the address of a field may be used to mutate it later;
		// treat it as a store so an unlocked &x.f is not silently legal.
		s.expr(t.X, h, write || t.Op.String() == "&")
	case *ast.IndexExpr:
		s.expr(t.X, h, write)
		s.expr(t.Index, h, false)
	case *ast.SliceExpr:
		s.expr(t.X, h, write)
		s.expr(t.Low, h, false)
		s.expr(t.High, h, false)
		s.expr(t.Max, h, false)
	case *ast.StarExpr:
		s.expr(t.X, h, write)
	case *ast.ParenExpr:
		s.expr(t.X, h, write)
	case *ast.BinaryExpr:
		s.expr(t.X, h, false)
		s.expr(t.Y, h, false)
	case *ast.KeyValueExpr:
		s.expr(t.Key, h, false)
		s.expr(t.Value, h, false)
	case *ast.CompositeLit:
		for _, el := range t.Elts {
			s.expr(el, h, false)
		}
	case *ast.TypeAssertExpr:
		s.expr(t.X, h, false)
	case *ast.FuncLit:
		// Closures in this codebase run synchronously (sort.Slice bodies,
		// query callbacks), so they observe the caller's locks.
		// Goroutine closures are handled (with an empty set) in GoStmt.
		s.stmts(t.Body.List, h.clone())
	}
}

// lockOps
type lockOp uint8

const (
	opLock lockOp = iota
	opRLock
	opUnlock
	opRUnlock
)

// lockOp recognizes mu.Lock()/RLock()/Unlock()/RUnlock() calls on a
// sync.Mutex or sync.RWMutex value and returns the printed mutex
// expression ("l.mu").
func (s *scanner) lockOp(e ast.Expr) (mutex string, op lockOp, ok bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", 0, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return "", 0, false
	}
	if !isMutexType(s.info.TypeOf(sel.X)) {
		return "", 0, false
	}
	return types.ExprString(sel.X), op, true
}

func applyLockOp(h lockSet, mutex string, op lockOp) lockSet {
	out := h.clone()
	switch op {
	case opLock:
		out[mutex] = holdExclusive
	case opRLock:
		out[mutex] = holdShared
	case opUnlock, opRUnlock:
		delete(out, mutex)
	}
	return out
}

// isMutexType reports whether t (possibly a pointer) is sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isRWMutexType reports whether t is sync.RWMutex.
func isRWMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "RWMutex"
}

// terminates reports whether a statement list always transfers control out
// (return, branch, panic, Fatal-style call) when it runs to its end.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(st ast.Stmt) bool {
	switch t := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := t.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(t.List)
	case *ast.IfStmt:
		if t.Else == nil {
			return false
		}
		return terminates(t.Body.List) && stmtTerminates(t.Else)
	case *ast.LabeledStmt:
		return stmtTerminates(t.Stmt)
	}
	return false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isDeleteBuiltin(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "delete"
}

// localCompositeVars returns the objects of variables initialized inside
// fn from a composite literal (x := T{...} or x := &T{...}): values under
// construction that have not escaped to other goroutines, and therefore
// need no locking. This is the constructor exemption lockguard applies.
func localCompositeVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			rhs := as.Rhs[i]
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
				rhs = u.X
			}
			if _, ok := rhs.(*ast.CompositeLit); ok {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// rootIdent unwraps selector/index/paren/star chains to the base
// identifier ("p" in p.l.inflight[i]); nil when the base is not an
// identifier (a call result, for example).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		default:
			return nil
		}
	}
}
