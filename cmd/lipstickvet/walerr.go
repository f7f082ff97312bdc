package main

import (
	"go/ast"
	"go/types"
)

// walerr enforces durability-error hygiene in the WAL layer: in any
// package named "store", the error results of Sync, Truncate, Close, and
// Rename calls may never be silently discarded — not as a bare expression
// statement and not behind a defer. A deliberate discard must be spelled
// `_ = f.Close()` so the decision is visible at the call site and in
// review.
var walerrAnalyzer = &Analyzer{
	Name: "walerr",
	Doc:  "Sync/Truncate/Close/Rename errors in package store are never silently discarded",
	Run:  runWalerr,
}

var walerrFuncs = map[string]bool{"Sync": true, "Truncate": true, "Close": true, "Rename": true}

func runWalerr(p *Pass) {
	if p.Pkg.Name() != "store" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.ExprStmt:
				if call, ok := t.X.(*ast.CallExpr); ok {
					reportDiscard(p, call, false)
				}
			case *ast.DeferStmt:
				reportDiscard(p, t.Call, true)
			}
			return true
		})
	}
}

// reportDiscard flags call statements whose callee is one of walerrFuncs
// returning an error that nothing consumes.
func reportDiscard(p *Pass, call *ast.CallExpr, deferred bool) {
	var name string
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		obj = identUse(p.Info, fun.Sel)
	case *ast.Ident:
		name = fun.Name
		obj = identUse(p.Info, fun)
	default:
		return
	}
	if !walerrFuncs[name] {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isErrorType(last) {
		return
	}
	how := "discarded"
	if deferred {
		how = "discarded behind defer"
	}
	p.Reportf(call.Pos(), "error result of %s %s — handle it or acknowledge with `_ = ...` (durability bugs hide here)", name, how)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}
