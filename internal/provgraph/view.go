package provgraph

import (
	"io"
	"slices"

	"lipstick/internal/semiring"
)

// GraphView is the read surface shared by *Graph and *Overlay: everything
// the query layer needs to answer zoom, deletion, subgraph, lineage, and
// export queries without knowing whether it is looking at a materialized
// graph or a copy-on-write session view layered over one.
type GraphView interface {
	// Structure.
	Node(id NodeID) Node
	TypeOf(id NodeID) Type
	LabelOf(id NodeID) string
	Alive(id NodeID) bool
	NumNodes() int
	TotalNodes() int
	NumEdges() int
	Out(id NodeID) []NodeID
	In(id NodeID) []NodeID
	Nodes(fn func(Node) bool)

	// Invocation records.
	Invocation(id InvID) *Invocation
	NumInvocations() int
	Invocations(fn func(*Invocation) bool)
	InvocationsOf(module string) []InvID

	// Queries (Sections 4 and 5.1).
	Ancestors(id NodeID) []NodeID
	Descendants(id NodeID) []NodeID
	Subgraph(id NodeID) *SubgraphResult
	PropagateDeletion(ids ...NodeID) *DeletionResult
	DependsOn(a, b NodeID) bool
	Expr(id NodeID) semiring.Expr
	ExprString(id NodeID) (expr string, truncated bool)

	// Exports and summaries.
	WriteDOT(w io.Writer, title string) error
	ComputeStats() Stats
}

// view is the primitive read surface the generic algorithm implementations
// run on. Raw adjacency (dead endpoints included) comes back as a slice,
// so the kernels iterate it with a plain loop — no per-node callback
// closure escapes through the interface — on both backings: *Graph
// returns its storage, *Overlay chains base adjacency with its recorded
// edge deltas.
type view interface {
	TotalNodes() int
	Node(id NodeID) Node
	Alive(id NodeID) bool
	// typeOp returns a node's type and op without assembling the Node
	// (no label or value decode).
	typeOp(id NodeID) (Type, Op)
	// classOf returns a node's class, LabelOf its label, both without
	// assembling the Node.
	classOf(id NodeID) Class
	LabelOf(id NodeID) string
	// outRaw and inRaw return id's raw adjacency in insertion order. A
	// list held contiguously is returned as a view of storage; a list
	// split across storage regions is assembled in *buf (grown as needed;
	// buf may be nil). Either way the result is read-only and valid until
	// the next call sharing buf or the next mutation of the view.
	outRaw(id NodeID, buf *[]NodeID) []NodeID
	inRaw(id NodeID, buf *[]NodeID) []NodeID
	NumInvocations() int
	Invocation(id InvID) *Invocation
}

// Interface conformance (the overlay's is asserted in overlay.go).
var _ GraphView = (*Graph)(nil)

// joinAdj assembles the two parts of a split adjacency list in *buf.
// a may itself live in *buf (an inner view assembled it there); the
// overlapping copy onto itself is safe.
func joinAdj(buf *[]NodeID, a, b []NodeID) []NodeID {
	var dst []NodeID
	if buf != nil {
		dst = (*buf)[:0]
	}
	dst = append(append(dst, a...), b...)
	if buf != nil {
		*buf = dst
	}
	return dst
}

// liveOut collects the live out-neighbors of id.
func liveOut(v view, id NodeID) []NodeID {
	var out []NodeID
	for _, n := range v.outRaw(id, nil) {
		if v.Alive(n) {
			out = append(out, n)
		}
	}
	return out
}

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

// hasLiveOut reports whether id has at least one live out-neighbor
// without materializing the neighbor list. It scans from the newest edge:
// ZoomOut kills a base tuple's state nodes oldest first and asks after
// each kill, which a scan from the oldest edge would answer in time
// quadratic in the tuple's out-degree.
func hasLiveOut(v view, id NodeID, buf *[]NodeID) bool {
	out := v.outRaw(id, buf)
	for i := len(out) - 1; i >= 0; i-- {
		if v.Alive(out[i]) {
			return true
		}
	}
	return false
}

// nodesDo calls fn for every live node in id order.
func nodesDo(v view, fn func(Node) bool) {
	total := v.TotalNodes()
	for id := 0; id < total; id++ {
		if v.Alive(NodeID(id)) {
			if !fn(v.Node(NodeID(id))) {
				return
			}
		}
	}
}

// numEdgesOf counts the edges between live nodes.
func numEdgesOf(v view) int {
	n := 0
	var buf []NodeID
	total := v.TotalNodes()
	for id := 0; id < total; id++ {
		if !v.Alive(NodeID(id)) {
			continue
		}
		for _, dst := range v.outRaw(NodeID(id), &buf) {
			if v.Alive(dst) {
				n++
			}
		}
	}
	return n
}

// invocationsDo calls fn for each invocation record of the view.
func invocationsDo(v view, fn func(*Invocation) bool) {
	for i := 0; i < v.NumInvocations(); i++ {
		if !fn(v.Invocation(InvID(i))) {
			return
		}
	}
}

// modulesInvocations returns the invocations of the given modules in
// ascending id order, with one pass over the invocation records.
func modulesInvocations(v view, modules []string) []InvID {
	var out []InvID
	for i := 0; i < v.NumInvocations(); i++ {
		if slices.Contains(modules, v.Invocation(InvID(i)).Module) {
			out = append(out, InvID(i))
		}
	}
	return out
}

// computeStatsOf walks the live view and tallies node classes and types.
func computeStatsOf(v view) Stats {
	s := Stats{ByType: make(map[Type]int), Invocations: v.NumInvocations()}
	nodesDo(v, func(n Node) bool {
		s.Nodes++
		if n.Class == ClassP {
			s.PNodes++
		} else {
			s.VNodes++
		}
		s.ByType[n.Type]++
		return true
	})
	s.Edges = numEdgesOf(v)
	return s
}

// ViewsStructurallyEqual reports whether two views have the same live
// nodes (by id, type, class, op, label) and the same live edge sets — the
// view-polymorphic reading of Graph.StructurallyEqual, used to assert
// overlay sessions match their Clone-then-mutate baseline.
func ViewsStructurallyEqual(a, b GraphView) bool {
	max := a.TotalNodes()
	if n := b.TotalNodes(); n > max {
		max = n
	}
	for id := 0; id < max; id++ {
		nid := NodeID(id)
		aa := id < a.TotalNodes() && a.Alive(nid)
		ba := id < b.TotalNodes() && b.Alive(nid)
		if aa != ba {
			return false
		}
		if !aa {
			continue
		}
		x, y := a.Node(nid), b.Node(nid)
		if x.Class != y.Class || x.Type != y.Type || x.Op != y.Op || x.Label != y.Label {
			return false
		}
		if !edgeSetEqual(a.Out(nid), b.Out(nid)) {
			return false
		}
	}
	return true
}
