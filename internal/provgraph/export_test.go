package provgraph

import (
	"sort"

	"lipstick/internal/nested"
)

// Test-only exports for the external differential test, which needs the
// workload generators of package workflowgen (an import cycle from an
// in-package test).

// RefSubgraph is the reference subgraph kernel's node order.
func RefSubgraph(v GraphView, id NodeID) []NodeID { return refSubgraphOf(v.(view), id) }

// RefPropagateDeletion is the reference deletion kernel's removal order.
func RefPropagateDeletion(v GraphView, ids ...NodeID) []NodeID {
	return refPropagateDeletionOf(v.(view), ids...)
}

// RefDelete kills on g, in order, what the reference deletion kernel
// removes, and returns it: the clone-then-mutate baseline of a delete.
func RefDelete(g *Graph, ids ...NodeID) []NodeID {
	removed := refPropagateDeletionOf(g, ids...)
	for _, id := range removed {
		g.kill(id)
	}
	return removed
}

// RefIntermediateNodes is the reference Definition 4.1 kernel.
func RefIntermediateNodes(v GraphView, modules map[string]bool) []NodeID {
	return refIntermediateNodesOf(v.(view), modules)
}

// view is the read surface the reference kernels of reference_test.go
// run on, over a *Graph or an *Overlay.
type view interface {
	TotalNodes() int
	Node(id NodeID) Node
	Alive(id NodeID) bool
	// outRaw and inRaw return id's raw adjacency (see reader.adj).
	outRaw(id NodeID, buf *[]NodeID) []NodeID
	inRaw(id NodeID, buf *[]NodeID) []NodeID
	NumInvocations() int
	Invocation(id InvID) *Invocation
}

func (g *Graph) outRaw(id NodeID, buf *[]NodeID) []NodeID   { return g.reader().adj(down, id, buf) }
func (g *Graph) inRaw(id NodeID, buf *[]NodeID) []NodeID    { return g.reader().adj(up, id, buf) }
func (o *Overlay) outRaw(id NodeID, buf *[]NodeID) []NodeID { return o.reader().adj(down, id, buf) }
func (o *Overlay) inRaw(id NodeID, buf *[]NodeID) []NodeID  { return o.reader().adj(up, id, buf) }

// liveIn collects the live in-neighbors of id.
func liveIn(v view, id NodeID) []NodeID {
	var out []NodeID
	for _, n := range v.inRaw(id, nil) {
		if v.Alive(n) {
			out = append(out, n)
		}
	}
	return out
}

// invocationsDo calls fn for each invocation record of the view.
func invocationsDo(v view, fn func(*Invocation) bool) {
	for i := 0; i < v.NumInvocations(); i++ {
		if !fn(v.Invocation(InvID(i))) {
			return
		}
	}
}

// mutableView is what the reference ZoomOut kernel mutates: a *Graph
// clone in the clone-then-mutate baselines, or an *Overlay.
type mutableView interface {
	view
	kill(id NodeID)
	AddNode(n Node) NodeID
	AddEdge(src, dst NodeID)
}

// RefZoomOut applies the reference ZoomOut kernel to a *Graph or
// *Overlay.
func RefZoomOut(v GraphView, modules ...string) *ZoomRecord {
	return refZoomOutOf(v.(mutableView), modules...)
}

// ZoomHidden exposes a record's hidden list in hiding order.
func ZoomHidden(r *ZoomRecord) []NodeID { return r.hidden }

// RefAncestors is the reference BFS's ancestor order.
func RefAncestors(v GraphView, id NodeID) []NodeID { return refBFS(v.(view), id, refEachIn) }

// RefDescendants is the reference BFS's descendant order.
func RefDescendants(v GraphView, id NodeID) []NodeID { return refBFS(v.(view), id, refEachOut) }

// ColdZoomOut zooms an overlay with the Definition 4.1 kernel itself,
// bypassing the base's zoom memo.
func ColdZoomOut(ov *Overlay, modules []string, invs []InvID) *ZoomRecord {
	return zoomOutOf(ov, modules, invs)
}

// ZoomMemoized reports whether g's zoom memo holds a plan for the
// ascending invocation set invs at g's current version.
func ZoomMemoized(g *Graph, invs []InvID) bool { return g.zoomPlan(invs) != nil }

// RefFreeze is Freeze as it was before it worked over symbol ids: every
// label, module and node name goes through a map[string]uint32. Tests
// hold Freeze to it field for field.
func RefFreeze(g *Graph) *Frozen {
	materializeInvs(g)
	n := g.n
	fr := &Frozen{
		NumNodes: n,
		Class:    make([]Class, n),
		Typ:      make([]Type, n),
		Op:       make([]Op, n),
		Label:    make([]uint32, n),
		Inv:      make([]InvID, n),
		ValIx:    make([]int32, n),
		Dead:     g.dead,
	}

	// Sorted symbol table over every label, module, and node-name string.
	symOf := make(map[string]uint32)
	for i := 0; i < n; i++ {
		symOf[g.syms.str(g.label.at(i))] = 0
	}
	for i := 0; i < g.invocations.len(); i++ {
		rec := g.invocations.roPtr(i)
		symOf[rec.Module] = 0
		symOf[rec.NodeName] = 0
	}
	delete(symOf, "")
	sorted := make([]string, 0, len(symOf))
	for s := range symOf {
		sorted = append(sorted, s)
	}
	sort.Strings(sorted)
	fr.SymOffs = make([]uint32, 1, len(sorted)+2)
	fr.SymOffs = append(fr.SymOffs, 0) // symbol 0 = ""
	for i, s := range sorted {
		symOf[s] = uint32(i + 1)
		fr.SymSlab = append(fr.SymSlab, s...)
		fr.SymOffs = append(fr.SymOffs, uint32(len(fr.SymSlab)))
	}

	// Node columns, with values compacted in node order.
	var vals []nested.Value
	fr.Alive = make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		fr.Class[i] = g.class.at(i)
		fr.Typ[i] = g.typ.at(i)
		fr.Op[i] = g.op.at(i)
		fr.Label[i] = symOf[g.syms.str(g.label.at(i))]
		fr.Inv[i] = g.inv.at(i)
		if ix := g.valIx.at(i); ix >= 0 {
			fr.ValIx[i] = int32(len(vals))
			vals = append(vals, g.valueByIx(int(ix)))
		} else {
			fr.ValIx[i] = -1
		}
		if g.alive.get(i) {
			fr.Alive[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	fr.NumValues = len(vals)
	fr.ValueAt = func(i int) nested.Value { return vals[i] }

	fr.OutOffs, fr.OutEdges = freezeAdj(&g.out, n)
	fr.InOffs, fr.InEdges = inCSRFromOut(fr.OutOffs, fr.OutEdges, n)

	// Invocation columns and anchor CSRs.
	ni := g.invocations.len()
	fr.InvModule = make([]uint32, ni)
	fr.InvNodeName = make([]uint32, ni)
	fr.InvExec = make([]int32, ni)
	fr.InvMNode = make([]NodeID, ni)
	fr.AnchorInOffs = make([]uint32, ni+1)
	fr.AnchorOutOffs = make([]uint32, ni+1)
	fr.AnchorStOffs = make([]uint32, ni+1)
	for i := 0; i < ni; i++ {
		inv := g.invocations.roPtr(i)
		fr.InvModule[i] = symOf[inv.Module]
		fr.InvNodeName[i] = symOf[inv.NodeName]
		fr.InvExec[i] = int32(inv.Execution)
		fr.InvMNode[i] = inv.MNode
		fr.AnchorIn = append(fr.AnchorIn, inv.Inputs...)
		fr.AnchorOut = append(fr.AnchorOut, inv.Outputs...)
		fr.AnchorSt = append(fr.AnchorSt, inv.States...)
		fr.AnchorInOffs[i+1] = uint32(len(fr.AnchorIn))
		fr.AnchorOutOffs[i+1] = uint32(len(fr.AnchorOut))
		fr.AnchorStOffs[i+1] = uint32(len(fr.AnchorSt))
	}
	return fr
}
