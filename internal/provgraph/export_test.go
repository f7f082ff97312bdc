package provgraph

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
