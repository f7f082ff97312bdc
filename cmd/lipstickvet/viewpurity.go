package main

import (
	"go/ast"
	"go/types"
)

// viewpurity keeps the shared read path honest: a function that accepts a
// provgraph.GraphView receives a read-only lens over a graph that may be
// shared by concurrent readers (snapshot serving, overlay sessions). Such
// a function must not call a mutating method on the underlying graph or
// overlay — whether reached through the view parameter or any other
// expression of a provgraph graph type.
var viewpurityAnalyzer = &Analyzer{
	Name: "viewpurity",
	Doc:  "functions taking provgraph.GraphView never call mutating graph methods",
	Run:  runViewpurity,
}

// graphMutators are the methods that mutate graph or overlay state.
var graphMutators = map[string]bool{
	"AddNode":             true,
	"AddEdge":             true,
	"AddInvocation":       true,
	"SetEventSink":        true,
	"ConstNode":           true, // interns into the constant cache
	"ZoomOut":             true,
	"ZoomOutInvocations":  true,
	"ZoomIn":              true,
	"Delete":              true,
	"RecomputeAggregates": true,
	"Reset":               true,
	"kill":                true,
	"killMask":            true,
	"revive":              true,
	"reviveMask":          true,
	"rollback":            true,
	"setValue":            true,
	"setNodeInv":          true,
	"addAnchor":           true,
	"emit":                true,
}

func runViewpurity(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !hasGraphViewParam(p.Info, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !graphMutators[sel.Sel.Name] {
					return true
				}
				callee, ok := identUse(p.Info, sel.Sel).(*types.Func)
				if !ok {
					return true
				}
				recv := callee.Type().(*types.Signature).Recv()
				if recv == nil || !isProvgraphType(recv.Type()) {
					return true
				}
				p.Reportf(call.Pos(), "function takes a provgraph.GraphView but calls mutating %s.%s — views are read-only",
					typeShortName(recv.Type()), sel.Sel.Name)
				return true
			})
		}
	}
}

// hasGraphViewParam reports whether any parameter's type is named
// GraphView declared in a package named "provgraph".
func hasGraphViewParam(info *types.Info, fn *ast.FuncDecl) bool {
	for _, fld := range fn.Type.Params.List {
		t := info.TypeOf(fld.Type)
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "GraphView" && obj.Pkg() != nil && obj.Pkg().Name() == "provgraph" {
				return true
			}
		}
	}
	return false
}

// isProvgraphType reports whether t (possibly a pointer) is a named type
// declared in a package named "provgraph".
func isProvgraphType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == "provgraph"
}

func typeShortName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
