package provgraph

import (
	"io"
	"slices"

	"lipstick/internal/semiring"
)

// GraphView is the read surface shared by *Graph and *Overlay: everything
// the query layer needs to answer zoom, deletion, subgraph, lineage, and
// export queries without knowing whether it is looking at a materialized
// graph or a copy-on-write session view layered over one. Both answer
// through the same kernels, which read the graph through a reader.
type GraphView interface {
	// Structure.
	Node(id NodeID) Node
	TypeOf(id NodeID) Type
	TypeOp(id NodeID) (Type, Op)
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

// Interface conformance (the overlay's is asserted in overlay.go).
var _ GraphView = (*Graph)(nil)

// reader is the one read surface every query kernel runs on: a base
// *Graph and, for an overlay, the overlay's delta over it (ov is nil for
// a *Graph). Liveness is the touched page's live word, or else the base's
// alive word; adjacency is the base's CSR or append list, joined with the
// overlay's appended edges where the page's edges bit is set, and the
// overlay's own list for an id past the base; type, op, class and label
// come from the base columns, or from the overlay's appended nodes. It is
// a concrete value, so a kernel reads an edge without an interface call.
type reader struct {
	g  *Graph
	ov *Overlay
}

func (g *Graph) reader() reader { return reader{g: g} }

func (o *Overlay) reader() reader { return reader{g: o.base, ov: o} }

// bare returns r without its overlay when the overlay holds no delta
// (Overlay.Changes is 0): the view is then the base itself. Only a
// kernel that does not mutate the view while it reads may take it.
func (r reader) bare() reader {
	if r.ov != nil && r.ov.Changes() == 0 {
		r.ov = nil
	}
	return r
}

// total returns the number of node slots in the view.
func (r reader) total() int {
	if r.ov != nil {
		return r.ov.TotalNodes()
	}
	return r.g.n
}

// appended returns the overlay's appended node at id, or nil for a base slot.
func (r reader) appended(id NodeID) *Node {
	if r.ov != nil {
		if i := int(id) - r.ov.baseSlots; i >= 0 {
			return &r.ov.added[i]
		}
	}
	return nil
}

func (r reader) alive(id NodeID) bool {
	if r.ov != nil {
		return r.ov.Alive(id)
	}
	return r.g.alive.get(int(id))
}

// typeOp returns a node's type and op without assembling the Node (no
// label or value decode).
func (r reader) typeOp(id NodeID) (Type, Op) {
	if n := r.appended(id); n != nil {
		return n.Type, n.Op
	}
	return r.g.typ.at(int(id)), r.g.op.at(int(id))
}

func (r reader) class(id NodeID) Class {
	if n := r.appended(id); n != nil {
		return n.Class
	}
	return r.g.class.at(int(id))
}

func (r reader) label(id NodeID) string {
	if n := r.appended(id); n != nil {
		return n.Label
	}
	return r.g.LabelOf(id)
}

// node assembles a node, with any overlay value override applied.
func (r reader) node(id NodeID) Node {
	var n Node
	if a := r.appended(id); a != nil {
		n = *a
	} else {
		n = r.g.Node(id)
	}
	if r.ov != nil {
		if v, ok := r.ov.values[id]; ok {
			n.Value = v
		}
	}
	return n
}

// adj returns id's raw adjacency in direction d (dead endpoints included)
// in insertion order: the base's list, then the overlay's appended edges,
// the order a mutated clone would hold. A list held contiguously is
// returned as a capacity-clipped view of storage; one split across
// storage regions is assembled in *buf (grown as needed; buf may be nil).
// Either way the result is read-only and valid until the next call
// sharing buf or the next mutation of the view.
func (r reader) adj(d dir, id NodeID, buf *[]NodeID) []NodeID {
	h := r.g.half(d)
	if o := r.ov; o != nil {
		added, extra := o.deltaAdj(d)
		if i := int(id) - o.baseSlots; i >= 0 {
			l := added[i]
			return l[:len(l):len(l)]
		}
		if o.hasEdges(id) && len(extra[id]) > 0 {
			return joinAdj(buf, h.raw(id, buf), extra[id])
		}
	}
	return h.raw(id, buf)
}

// live returns id's live neighbors in direction d: the raw list itself
// when every endpoint is live (read-only), else a copy without the dead.
func (r reader) live(d dir, id NodeID) []NodeID {
	adj := r.adj(d, id, nil)
	i := 0
	for i < len(adj) && r.alive(adj[i]) {
		i++
	}
	if i == len(adj) {
		return adj
	}
	live := make([]NodeID, i, len(adj)-1)
	copy(live, adj[:i])
	for _, n := range adj[i+1:] {
		if r.alive(n) {
			live = append(live, n)
		}
	}
	return live
}

// joinAdj assembles the two parts of a split adjacency list in *buf.
// a may itself live in *buf (the base assembled it there); the
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

// hasLiveOut reports whether id has at least one live out-neighbor
// without materializing the neighbor list. It scans from the newest edge:
// ZoomOut kills a base tuple's state nodes oldest first and asks after
// each kill, which a scan from the oldest edge would answer in time
// quadratic in the tuple's out-degree.
func hasLiveOut(r reader, id NodeID, buf *[]NodeID) bool {
	out := r.adj(down, id, buf)
	for i := len(out) - 1; i >= 0; i-- {
		if r.alive(out[i]) {
			return true
		}
	}
	return false
}

// nodes calls fn for every live node in id order; fn returning false
// stops iteration.
func (r reader) nodes(fn func(Node) bool) {
	total := r.total()
	for id := 0; id < total; id++ {
		if r.alive(NodeID(id)) && !fn(r.node(NodeID(id))) {
			return
		}
	}
}

// numEdges counts the edges between live nodes.
func (r reader) numEdges() int {
	n := 0
	var buf []NodeID
	total := r.total()
	for id := 0; id < total; id++ {
		if !r.alive(NodeID(id)) {
			continue
		}
		for _, dst := range r.adj(down, NodeID(id), &buf) {
			if r.alive(dst) {
				n++
			}
		}
	}
	return n
}

// stats walks the live view and tallies node classes and types.
func (r reader) stats() Stats {
	s := Stats{ByType: make(map[Type]int), Invocations: r.g.NumInvocations()}
	total := r.total()
	for id := 0; id < total; id++ {
		if !r.alive(NodeID(id)) {
			continue
		}
		s.Nodes++
		if r.class(NodeID(id)) == ClassP {
			s.PNodes++
		} else {
			s.VNodes++
		}
		t, _ := r.typeOp(NodeID(id))
		s.ByType[t]++
	}
	s.Edges = r.numEdges()
	return s
}

// modulesInvocations returns the invocations of the given modules in
// ascending id order, with one pass over the invocation records.
func modulesInvocations(g *Graph, modules []string) []InvID {
	var out []InvID
	for i := 0; i < g.NumInvocations(); i++ {
		if slices.Contains(modules, g.Invocation(InvID(i)).Module) {
			out = append(out, InvID(i))
		}
	}
	return out
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
