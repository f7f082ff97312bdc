package core

import (
	"slices"

	"lipstick/internal/provgraph"
	"lipstick/internal/semiring"
)

// NodeFilter selects graph nodes by structural properties; zero fields
// match everything. It is the selection layer provenance queries (in the
// spirit of ProQL [20]) are built from.
type NodeFilter struct {
	// Classes restricts to p-nodes or v-nodes.
	Classes []provgraph.Class
	// Types restricts the node type (workflow input, invocation, ...).
	Types []provgraph.Type
	// Ops restricts the operation label (+, ·, δ, ⊗, agg, bb, const).
	Ops []provgraph.Op
	// Label requires an exact label match (token, module or function
	// name).
	Label string
	// Module restricts to nodes anchored to an invocation of this module
	// (m/i/o/s/zoom nodes).
	Module string
}

// contains reports whether xs holds x (the multi-value filter dimensions
// are tiny slices, so a linear probe beats any set structure).
func contains[T comparable](xs []T, x T) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Matches reports whether a node satisfies the filter. The view may be a
// materialized graph or a session overlay.
func (f NodeFilter) Matches(g provgraph.GraphView, n provgraph.Node) bool {
	if len(f.Classes) > 0 && !contains(f.Classes, n.Class) {
		return false
	}
	if len(f.Types) > 0 && !contains(f.Types, n.Type) {
		return false
	}
	if len(f.Ops) > 0 && !contains(f.Ops, n.Op) {
		return false
	}
	if f.Label != "" && n.Label != f.Label {
		return false
	}
	if f.Module != "" {
		if n.Inv < 0 {
			return false
		}
		if g.Invocation(n.Inv).Module != f.Module {
			return false
		}
	}
	return true
}

// View is one consistent read state: the graph a query runs on (a
// snapshot's graph, a live graph's published view, or a session's
// overlay) and the postings index of the snapshot under it. A
// QueryProcessor's View is safe to share; a session's is valid only
// inside Session.Read or Session.Delete.
type View struct {
	Graph provgraph.GraphView
	Index *Index
}

// View returns the processor's graph and index as a View.
func (qp *QueryProcessor) View() View { return View{Graph: qp.graph, Index: qp.index} }

// FindNodes returns the live nodes matching the filter, in id order.
//
// When the filter constrains an indexed dimension (type, op, label, or
// module) the candidates come from intersecting the snapshot's postings
// lists; only nodes appended to the graph after the index was built (zoom
// nodes installed at query time) are swept linearly. Unconstrained (or
// class-only) filters sweep every slot, which is what they would touch
// anyway.
func (qp *QueryProcessor) FindNodes(f NodeFilter) []provgraph.NodeID {
	return qp.View().FindNodes(f)
}

// FindNodes is the shared selection engine: candidates come from the
// base snapshot's postings, and liveness and field predicates are
// re-checked through the view, so a session's kills and value overrides
// are honored; nodes the view appended past the index's coverage (zoom
// nodes) are swept separately, and so is every slot when the index
// cannot narrow the filter.
func (v View) FindNodes(f NodeFilter) []provgraph.NodeID {
	g := v.Graph
	var out []provgraph.NodeID
	sweep := 0
	if cand, indexed := v.Index.candidates(f); indexed {
		for _, id := range cand {
			if g.Alive(id) && f.Matches(g, g.Node(id)) {
				out = append(out, id)
			}
		}
		sweep = v.Index.Coverage()
	}
	for id := sweep; id < g.TotalNodes(); id++ {
		nid := provgraph.NodeID(id)
		if g.Alive(nid) && f.Matches(g, g.Node(nid)) {
			out = append(out, nid)
		}
	}
	return out
}

// Lineage classifies everything a node's existence draws on.
type Lineage struct {
	Node provgraph.NodeID
	// Inputs are the workflow-input ancestors (tokens of type "I").
	Inputs []provgraph.NodeID
	// StateTuples are the base state-tuple ancestors.
	StateTuples []provgraph.NodeID
	// Modules are the distinct module names whose invocations participate
	// in the derivation, sorted.
	Modules []string
	// AncestorCount is the total number of ancestors.
	AncestorCount int
}

// Lineage computes the classified ancestry of a node.
func (qp *QueryProcessor) Lineage(id provgraph.NodeID) Lineage {
	return qp.View().Lineage(id)
}

// Lineage classifies a node's ancestry through the view. It reads each
// ancestor's type column and, for invocation and zoom nodes only, its
// label.
func (v View) Lineage(id provgraph.NodeID) Lineage {
	g := v.Graph
	l := Lineage{Node: id}
	anc := g.Ancestors(id)
	l.AncestorCount = len(anc)
	for _, a := range anc {
		switch g.TypeOf(a) {
		case provgraph.TypeWorkflowInput:
			l.Inputs = append(l.Inputs, a)
		case provgraph.TypeBaseTuple:
			l.StateTuples = append(l.StateTuples, a)
		case provgraph.TypeInvocation, provgraph.TypeZoom:
			l.Modules = append(l.Modules, g.LabelOf(a))
		}
	}
	slices.Sort(l.Modules)
	l.Modules = slices.Compact(l.Modules)
	return l
}

// Expr reconstructs a node's provenance as a semiring expression
// (Section 2.3's polynomial reading of the graph).
func (qp *QueryProcessor) Expr(id provgraph.NodeID) semiring.Expr {
	return qp.graph.Expr(id)
}

// Provenance renders a node's provenance expression, Expr(id).String(),
// straight from the graph, cut at provgraph.MaxExprBytes (truncated
// reports the cut).
func (qp *QueryProcessor) Provenance(id provgraph.NodeID) (expr string, truncated bool) {
	return qp.graph.ExprString(id)
}

// Polynomial returns the canonical N[X] polynomial of a node's provenance.
func (qp *QueryProcessor) Polynomial(id provgraph.NodeID) semiring.Polynomial {
	return semiring.ToPolynomial(qp.graph.Expr(id))
}
