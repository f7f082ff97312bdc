// Package provgraph implements the Lipstick provenance graph (Section 3 of
// the paper): a DAG whose nodes are provenance nodes (p-nodes) and value
// nodes (v-nodes) labeled with provenance tokens, the semiring operations
// + · δ ⊗, aggregate operation names, and black-box function names, plus
// the workflow-level node types — workflow inputs ("I"), module invocations
// ("m"), module inputs ("i"), module outputs ("o"), and module state ("s").
//
// Edges point from sources to results (from v' to v when v is derived from
// v'), so ancestors of a node are the data it depends on, and descendants
// are the data derived from it.
//
// The package also implements the graph transformations of Section 4:
// ZoomOut/ZoomIn (Definition 4.1), deletion propagation (Definition 4.2),
// and the subgraph/dependency queries evaluated in Section 5.6.
package provgraph

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"lipstick/internal/nested"
)

// NodeID identifies a node within one graph. IDs are dense and start at 0.
type NodeID int32

// InvalidNode is returned by lookups that find nothing.
const InvalidNode NodeID = -1

// Class distinguishes provenance nodes from value nodes.
type Class uint8

const (
	// ClassP marks provenance nodes (circles in the paper's figures).
	ClassP Class = iota
	// ClassV marks value nodes (squares in the paper's figures).
	ClassV
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == ClassP {
		return "p"
	}
	return "v"
}

// Type enumerates the structural roles a node can play.
type Type uint8

const (
	// TypeWorkflowInput is an "I" node: a tuple provided by a workflow
	// input module.
	TypeWorkflowInput Type = iota
	// TypeInvocation is an "m" node: one invocation of a module.
	TypeInvocation
	// TypeModuleInput is an "i" node: a tuple given as input to a module
	// invocation, labeled · (joint derivation of the tuple and the
	// invocation).
	TypeModuleInput
	// TypeModuleOutput is an "o" node: a tuple output by an invocation,
	// labeled ·.
	TypeModuleOutput
	// TypeState is an "s" node: a state tuple used by an invocation,
	// labeled · (joint derivation of the base tuple and the invocation).
	TypeState
	// TypeBaseTuple is a p-node carrying the identifier (token) of a state
	// or source tuple, e.g. car C2.
	TypeBaseTuple
	// TypeOp is an internal computation node labeled with a semiring
	// operation (+, ·, δ) — the fine-grained provenance of Section 3.2.
	TypeOp
	// TypeValue is a v-node: a constant value, a tensor ⊗, an aggregate
	// result (SUM/COUNT/...), or a black-box result.
	TypeValue
	// TypeZoom is a zoomed-out module invocation node installed by ZoomOut
	// (the rounded rectangles of Figure 2(b)).
	TypeZoom
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeWorkflowInput:
		return "I"
	case TypeInvocation:
		return "m"
	case TypeModuleInput:
		return "i"
	case TypeModuleOutput:
		return "o"
	case TypeState:
		return "s"
	case TypeBaseTuple:
		return "tuple"
	case TypeOp:
		return "op"
	case TypeValue:
		return "value"
	case TypeZoom:
		return "zoom"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Op enumerates node operation labels.
type Op uint8

const (
	// OpNone marks nodes without an operation label (tokens, invocations).
	OpNone Op = iota
	// OpPlus is alternative derivation (+).
	OpPlus
	// OpTimes is joint derivation (·).
	OpTimes
	// OpDelta is duplicate elimination (δ).
	OpDelta
	// OpTensor pairs a value with the provenance of a contributing tuple
	// (⊗) in aggregate provenance.
	OpTensor
	// OpAgg is an aggregate operation v-node; Node.Label holds the
	// operation name (SUM, COUNT, MIN, MAX, AVG).
	OpAgg
	// OpBB is a black-box (UDF) node; Node.Label holds the function name.
	OpBB
	// OpConst is a constant value v-node.
	OpConst
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpNone:
		return ""
	case OpPlus:
		return "+"
	case OpTimes:
		return "·"
	case OpDelta:
		return "δ"
	case OpTensor:
		return "⊗"
	case OpAgg:
		return "agg"
	case OpBB:
		return "bb"
	case OpConst:
		return "const"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// KnownKind reports whether a node's class, type and op are inside
// their enums. Every reader of outside bytes checks it (event replay and
// both snapshot decoders): postings bucket nodes over these enums, so a
// node past one would break the next checkpoint.
func KnownKind(c Class, t Type, o Op) bool {
	return c <= ClassV && t <= TypeZoom && o <= OpConst
}

// InvID identifies a module invocation recorded in the graph.
type InvID int32

// Invocation records the structural anchors of one module invocation: its
// m-node and the module input, output, and state nodes created for it.
type Invocation struct {
	ID        InvID
	Module    string // module name (label of the m-node)
	NodeName  string // workflow node that was invoked (distinct uses of one module)
	Execution int    // index of the workflow execution this invocation belongs to
	MNode     NodeID
	Inputs    []NodeID
	Outputs   []NodeID
	States    []NodeID
}

// Node is one provenance-graph node. It is the package's lookup and
// serialization record; storage is columnar (see below), so Node values
// are assembled on access rather than held in an array.
type Node struct {
	ID    NodeID
	Class Class
	Type  Type
	Op    Op
	// Label holds the provenance token for base tuples and workflow
	// inputs, the module name for invocation and zoom nodes, the aggregate
	// operation name for OpAgg, and the function name for OpBB.
	Label string
	// Inv is the invocation a module-input/output/state/invocation/zoom
	// node belongs to; -1 otherwise.
	Inv InvID
	// Value is the constant carried by value nodes (OpConst and computed
	// aggregate/BB results); Null otherwise.
	Value nested.Value
}

// Graph is a provenance graph. Nodes are never physically removed:
// transformations (deletion propagation, ZoomOut) mark nodes dead, which
// keeps NodeIDs stable and makes ZoomIn an exact inverse. All traversals
// skip dead nodes.
//
// Storage is struct-of-arrays: one dense typed column per node attribute,
// labels interned through a symbol table, adjacency in CSR form with
// per-node append lists for the live-ingest grow path, and liveness as a
// packed bitset. Each column splits into a read-only base — which may
// alias an mmap'd LPSK v3 snapshot — and a heap tail; mutating a base
// slot copies that column to the heap first (see columns.go), so a
// mapped graph never writes through the file mapping.
type Graph struct {
	n     int // allocated node slots
	class col[Class]
	typ   col[Type]
	op    col[Op]
	label col[uint32] // symbol ids (symtab)
	inv   chunked[InvID]
	valIx chunked[int32] // index into the value store; -1 = Null
	syms  symtab
	alive bitset
	dead  int // number of dead nodes

	out, in  adjHalf
	numEdges int // total edges ever added (dead endpoints included)

	// Values: indexes below valBase resolve through valAt (a decoder over
	// a frozen snapshot's value section); valBase+i resolves to vals[i].
	// Slots below valsShared are visible to a published view and must not
	// be overwritten in place (setValue allocates a fresh slot instead).
	valBase    int
	valAt      func(int) nested.Value
	vals       []nested.Value
	valsShared int

	// frozenInvs holds the columnar invocation records of an opened
	// snapshot; invocations materializes from it lazily (invOnce) so an
	// O(1) mapped open does not pay a per-invocation rebuild. frozenInvs
	// is set only at construction and never reassigned.
	frozenInvs  *Frozen
	invOnce     *sync.Once
	invocations chunked[Invocation]

	// constIndex interns constant value v-nodes; built lazily (constOnce)
	// from the OpConst nodes on first lookup.
	constIndex map[constKey]NodeID
	constOnce  *sync.Once

	// mapRef pins the memory mapping (if any) backing the read-only
	// column bases for the lifetime of the graph.
	mapRef any

	// version counts structural mutations (node and edge appends, kills,
	// revives, invocation anchors); the overlays' shared orphan set and
	// zoom memo are stamped with it.
	version uint64
	// orphanBits is the orphan set of derived.go, built lazily for the
	// overlays layered over this graph and shared by them; zoomPlans is
	// their zoom memo.
	orphanBits atomic.Pointer[orphanSet]
	zoomPlans  atomic.Pointer[zoomPlans]

	// events observes every mutation as a typed Event (see events.go);
	// nil (the default) costs one branch per mutation. Clone does not
	// copy it.
	events func(Event)
}

func newEmpty() *Graph {
	return &Graph{invOnce: new(sync.Once), constOnce: new(sync.Once)}
}

// New returns an empty graph.
func New() *Graph {
	g := newEmpty()
	g.syms.init()
	return g
}

// normalizeInv applies AddNode's invocation-attribution default: nodes
// that are not structurally anchored to an invocation get Inv = -1.
func normalizeInv(n Node) Node {
	if n.Inv == 0 && n.Type != TypeInvocation && n.Type != TypeModuleInput &&
		n.Type != TypeModuleOutput && n.Type != TypeState && n.Type != TypeZoom {
		n.Inv = -1
	}
	return n
}

// AddNode appends a node and returns its id.
func (g *Graph) AddNode(n Node) NodeID {
	n = normalizeInv(n)
	n.ID = NodeID(g.n)
	g.appendNode(&n)
	return n.ID
}

// appendNode appends *n as it is, Inv included; n.ID must be the next
// slot id. Apply passes an event's node in place, without a copy.
func (g *Graph) appendNode(n *Node) {
	g.class.add(n.Class)
	g.typ.add(n.Type)
	g.op.add(n.Op)
	g.label.add(g.syms.intern(n.Label))
	g.inv.add(n.Inv)
	if n.Value.IsNull() {
		g.valIx.add(-1)
	} else {
		g.valIx.add(int32(g.valBase + len(g.vals)))
		g.vals = append(g.vals, n.Value)
	}
	g.out.addSlot()
	g.in.addSlot()
	g.alive.setGrow(g.n)
	g.n++
	g.version++
	if g.events != nil {
		g.emit(Event{Kind: EvAddNode, Node: *n})
	}
}

// AddEdge adds a directed edge from src to dst (dst is derived from src).
func (g *Graph) AddEdge(src, dst NodeID) {
	g.out.add(src, dst)
	g.in.add(dst, src)
	g.numEdges++
	g.version++
	if g.events != nil {
		g.emit(Event{Kind: EvAddEdge, Src: src, Dst: dst})
	}
}

// setNodeInv attributes an existing node to an invocation.
func (g *Graph) setNodeInv(id NodeID, inv InvID) {
	g.inv.set(int(id), inv)
	if g.events != nil {
		g.emit(Event{Kind: EvSetNodeInv, Src: id, Inv: inv})
	}
}

// setValue overwrites a node's carried value (aggregate recomputation).
func (g *Graph) setValue(id NodeID, v nested.Value) {
	i := int(id)
	if ix := int(g.valIx.at(i)); ix >= g.valBase && ix-g.valBase >= g.valsShared {
		// The node owns a heap value slot no published view can see;
		// overwrite in place.
		g.vals[ix-g.valBase] = v
	} else {
		// No slot, a read-only frozen slot, or a slot shared with a
		// published view: allocate a fresh heap slot.
		g.valIx.set(i, int32(g.valBase+len(g.vals)))
		g.vals = append(g.vals, v)
	}
	if g.events != nil {
		g.emit(Event{Kind: EvSetValue, Src: id, Value: v})
	}
}

// addAnchor appends a module input/output/state node to an invocation's
// anchor list. Anchors stream as events of their own, so an
// invocation record can be rebuilt exactly from the event log without a
// batch fixup pass.
func (g *Graph) addAnchor(inv InvID, kind AnchorKind, id NodeID) {
	materializeInvs(g)
	rec := g.invocations.ptr(int(inv))
	switch kind {
	case AnchorInput:
		rec.Inputs = append(rec.Inputs, id)
	case AnchorOutput:
		rec.Outputs = append(rec.Outputs, id)
	case AnchorState:
		rec.States = append(rec.States, id)
	}
	g.version++ // a zoom reads the anchors
	if g.events != nil {
		g.emit(Event{Kind: EvAnchor, Inv: inv, Anchor: kind, Src: id})
	}
}

// valueByIx resolves a value-store index.
func (g *Graph) valueByIx(ix int) nested.Value {
	if ix < g.valBase {
		return g.valAt(ix)
	}
	return g.vals[ix-g.valBase]
}

// nodeValue returns slot i's carried value (Null when none is stored).
func (g *Graph) nodeValue(i int) nested.Value {
	ix := int(g.valIx.at(i))
	if ix < 0 {
		return nested.Null()
	}
	return g.valueByIx(ix)
}

// Node returns the node with the given id, assembled from the columns.
func (g *Graph) Node(id NodeID) Node {
	i := int(id)
	return Node{
		ID:    id,
		Class: g.class.at(i),
		Type:  g.typ.at(i),
		Op:    g.op.at(i),
		Label: g.syms.str(g.label.at(i)),
		Inv:   g.inv.at(i),
		Value: g.nodeValue(i),
	}
}

// TypeOf returns a node's type from the type column, without assembling
// the Node.
func (g *Graph) TypeOf(id NodeID) Type { return g.typ.at(int(id)) }

// TypeOp returns a node's type and op without assembling the Node.
func (g *Graph) TypeOp(id NodeID) (Type, Op) { return g.typ.at(int(id)), g.op.at(int(id)) }

// LabelOf returns a node's label from the label column, without
// assembling the Node (no value decode).
func (g *Graph) LabelOf(id NodeID) string { return g.syms.str(g.label.at(int(id))) }

// Alive reports whether the node is visible (not removed by a
// transformation).
func (g *Graph) Alive(id NodeID) bool { return g.alive.get(int(id)) }

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.n - g.dead }

// TotalNodes returns the number of allocated node slots (live + dead).
func (g *Graph) TotalNodes() int { return g.n }

// NumEdges returns the number of live edges (both endpoints alive).
func (g *Graph) NumEdges() int { return g.reader().numEdges() }

// Out returns the live out-neighbors of id. The result is read-only: it
// may be the graph's own storage.
func (g *Graph) Out(id NodeID) []NodeID { return g.reader().live(down, id) }

// In returns the live in-neighbors of id, read-only like Out's.
func (g *Graph) In(id NodeID) []NodeID { return g.reader().live(up, id) }

// Nodes calls fn for every live node; fn returning false stops iteration.
func (g *Graph) Nodes(fn func(Node) bool) { g.reader().nodes(fn) }

// kill marks a node dead.
func (g *Graph) kill(id NodeID) {
	if g.alive.get(int(id)) {
		g.alive.clear(int(id))
		g.dead++
		g.version++
		if g.events != nil {
			g.emit(Event{Kind: EvKill, Src: id})
		}
	}
}

// revive marks a node live again.
func (g *Graph) revive(id NodeID) {
	if !g.alive.get(int(id)) {
		g.alive.set(int(id))
		g.dead--
		g.version++
		if g.events != nil {
			g.emit(Event{Kind: EvRevive, Src: id})
		}
	}
}

// AddInvocation records a module invocation and returns its id. The
// module and node-name strings are interned through the symbol table so
// repeated invocations of one module share a single string copy.
func (g *Graph) AddInvocation(inv Invocation) InvID {
	materializeInvs(g)
	inv.ID = InvID(g.invocations.len())
	inv.Module = g.syms.str(g.syms.intern(inv.Module))
	inv.NodeName = g.syms.str(g.syms.intern(inv.NodeName))
	g.invocations.add(inv)
	if g.events != nil {
		g.emit(Event{
			Kind: EvOpenInvocation, Inv: inv.ID, Src: inv.MNode,
			Module: inv.Module, NodeName: inv.NodeName, Execution: inv.Execution,
		})
	}
	return inv.ID
}

// Invocation returns the invocation record with the given id. The record
// must be treated as read-only; addAnchor is the only mutation path.
func (g *Graph) Invocation(id InvID) *Invocation {
	materializeInvs(g)
	return g.invocations.roPtr(int(id))
}

// NumInvocations returns the number of recorded invocations.
func (g *Graph) NumInvocations() int {
	materializeInvs(g)
	return g.invocations.len()
}

// Invocations calls fn for each invocation record.
func (g *Graph) Invocations(fn func(*Invocation) bool) {
	materializeInvs(g)
	for i := 0; i < g.invocations.len(); i++ {
		if !fn(g.invocations.roPtr(i)) {
			return
		}
	}
}

// InvocationsOf returns the invocation ids of the given module name.
func (g *Graph) InvocationsOf(module string) []InvID {
	materializeInvs(g)
	var out []InvID
	for i := 0; i < g.invocations.len(); i++ {
		if rec := g.invocations.roPtr(i); rec.Module == module {
			out = append(out, rec.ID)
		}
	}
	return out
}

// ConstNode returns the interned constant-value v-node for v, creating it
// on first use (the paper: "if a node for this value does not exist
// already").
func (g *Graph) ConstNode(v nested.Value) NodeID {
	key := constKeyOf(v)
	ensureConstIndex(g)
	if id, ok := g.constIndex[key]; ok && g.alive.get(int(id)) {
		return id
	}
	id := g.AddNode(Node{Class: ClassV, Type: TypeValue, Op: OpConst, Value: v})
	g.constIndex[key] = id
	return id
}

// constKey is a constant's interning key, with the equality of
// nested.Value.Key without rendering a scalar: kinds exact, booleans and
// integers by value, floats by their bits, strings by value. Nested
// values (tuples and bags) are keyed by their rendered Key.
type constKey struct {
	kind nested.Kind
	bits uint64
	s    string
}

func constKeyOf(v nested.Value) constKey {
	k := constKey{kind: v.Kind()}
	switch k.kind {
	case nested.KindBool:
		if v.AsBool() {
			k.bits = 1
		}
	case nested.KindInt:
		k.bits = uint64(v.AsInt())
	case nested.KindFloat:
		k.bits = math.Float64bits(v.AsFloat())
	case nested.KindString:
		k.s = v.AsString()
	case nested.KindTuple, nested.KindBag:
		k.s = v.Key()
	}
	return k
}

// Clone returns a deep copy of the graph (alive state included). Clones
// share the read-only column bases — cloning a snapshot-backed graph
// copies one bit per node plus the heap tails, not the node data.
func (g *Graph) Clone() *Graph {
	materializeInvs(g)
	c := &Graph{
		n:         g.n,
		class:     g.class.cloneShared(),
		typ:       g.typ.cloneShared(),
		op:        g.op.cloneShared(),
		label:     g.label.cloneShared(),
		inv:       g.inv.cloneShared(),
		valIx:     g.valIx.cloneShared(),
		syms:      g.syms.cloneShared(),
		alive:     append(bitset(nil), g.alive...),
		dead:      g.dead,
		out:       g.out.cloneShared(),
		in:        g.in.cloneShared(),
		numEdges:  g.numEdges,
		valBase:   g.valBase,
		valAt:     g.valAt,
		vals:      append([]nested.Value(nil), g.vals...),
		invOnce:   new(sync.Once),
		constOnce: new(sync.Once),
		mapRef:    g.mapRef,
	}
	// Invocations are materialized above, so the clone keeps the heap
	// records and drops the frozen source (its columns stay pinned via
	// the shared bases and mapRef). Anchor lists are deep-copied: two
	// independent writers must not share the append-able inner arrays.
	c.invocations = chunked[Invocation]{epoch: 1}
	for i := 0; i < g.invocations.len(); i++ {
		inv := *g.invocations.roPtr(i)
		inv.Inputs = append([]NodeID(nil), inv.Inputs...)
		inv.Outputs = append([]NodeID(nil), inv.Outputs...)
		inv.States = append([]NodeID(nil), inv.States...)
		c.invocations.add(inv)
	}
	if g.constIndex != nil {
		c.constIndex = maps.Clone(g.constIndex)
		c.constOnce.Do(func() {}) // consume: the copied map is authoritative
	}
	return c
}

// StructurallyEqual reports whether two graphs have the same live nodes
// (by id, type, class, op, label) and the same live edge sets. It is used
// to verify ZoomIn(ZoomOut(G, M), M) = G.
func (g *Graph) StructurallyEqual(o *Graph) bool {
	// Graphs may differ in allocated slots (e.g. zoom nodes added then
	// removed); compare the live structure over the union of slots.
	max := g.n
	if o.n > max {
		max = o.n
	}
	for id := 0; id < max; id++ {
		ga := id < g.n && g.alive.get(id)
		oa := id < o.n && o.alive.get(id)
		if ga != oa {
			return false
		}
		if !ga {
			continue
		}
		if g.class.at(id) != o.class.at(id) || g.typ.at(id) != o.typ.at(id) ||
			g.op.at(id) != o.op.at(id) ||
			g.syms.str(g.label.at(id)) != o.syms.str(o.label.at(id)) {
			return false
		}
		if !edgeSetEqual(g.Out(NodeID(id)), o.Out(NodeID(id))) {
			return false
		}
	}
	return true
}

func edgeSetEqual(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[NodeID]int, len(a))
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
		if seen[x] < 0 {
			return false
		}
	}
	return true
}

// DeadNodes returns the ids of dead (hidden/deleted) node slots.
func (g *Graph) DeadNodes() []NodeID {
	var out []NodeID
	for id := 0; id < g.n; id++ {
		if !g.alive.get(id) {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// AllEdgesDo calls fn for every edge including those touching dead nodes
// (used by serialization, which must preserve restorability).
func (g *Graph) AllEdgesDo(fn func(src, dst NodeID) bool) {
	for id := 0; id < g.n; id++ {
		stop := false
		g.out.each(NodeID(id), func(dst NodeID) bool {
			if !fn(NodeID(id), dst) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// AllNodesDo calls fn for every node slot including dead ones.
func (g *Graph) AllNodesDo(fn func(Node) bool) {
	for id := 0; id < g.n; id++ {
		if !fn(g.Node(NodeID(id))) {
			return
		}
	}
}

// Stats summarizes the graph for benchmarks and reports.
type Stats struct {
	Nodes       int
	Edges       int
	PNodes      int
	VNodes      int
	Invocations int
	ByType      map[Type]int
}

// ComputeStats walks the live graph and tallies node classes and types.
func (g *Graph) ComputeStats() Stats { return g.reader().stats() }
