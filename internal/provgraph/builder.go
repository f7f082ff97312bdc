package provgraph

import (
	"lipstick/internal/nested"
)

// Builder applies the provenance-graph construction rules of Section 3 on
// top of a Graph: workflow-level nodes (3.1) and the per-operator
// fine-grained rules (3.2). The evaluation engine and the workflow runner
// drive a Builder while executing Pig Latin programs.
//
// Module input and output nodes are built as composite nodes (the paper
// draws them as a square stacked on a circle — one p-node and one v-node
// for the same tuple); the builder represents the composite as a single
// p-node, which is how the figures reference them (e.g. N41, N90).
type Builder struct {
	// G is the graph every construction rule writes to.
	G *Graph
	// SimplifiedAgg, when true, reproduces the figure's compressed
	// aggregation drawing (edges from contributing tuples straight to the
	// aggregate node, omitting tensor and constant v-nodes). The default
	// is the full construction of Section 3.2.
	SimplifiedAgg bool
}

// NewBuilder returns a builder over a fresh graph.
func NewBuilder() *Builder {
	return &Builder{G: New()}
}

// AddEdge adds a raw derivation edge between existing nodes.
func (b *Builder) AddEdge(src, dst NodeID) { b.G.AddEdge(src, dst) }

// ConstNode returns the interned constant-value v-node for v.
func (b *Builder) ConstNode(v nested.Value) NodeID { return b.G.ConstNode(v) }

// WorkflowInput creates an "I" p-node for a workflow input tuple.
func (b *Builder) WorkflowInput(token string) NodeID {
	return b.G.AddNode(Node{Class: ClassP, Type: TypeWorkflowInput, Label: token})
}

// BeginInvocation creates the "m" node for one invocation of a module and
// records the invocation. nodeName distinguishes multiple workflow nodes
// labeled with the same module; execution is the workflow execution index.
func (b *Builder) BeginInvocation(module, nodeName string, execution int) InvID {
	// The m-node carries Inv = -1 until the invocation record exists and
	// setNodeInv back-references it; an explicit -1 (instead of a transient
	// 0) keeps every captured add-node event's Inv a valid reference.
	m := b.G.AddNode(Node{Class: ClassP, Type: TypeInvocation, Label: module, Inv: -1})
	id := b.G.AddInvocation(Invocation{
		Module:    module,
		NodeName:  nodeName,
		Execution: execution,
		MNode:     m,
	})
	b.G.setNodeInv(m, id)
	return id
}

// ModuleInput creates an "i" node (·-labeled joint derivation) for a tuple
// entering the invocation, with edges from the tuple's p-node and from the
// invocation's m-node.
func (b *Builder) ModuleInput(inv InvID, tupleProv NodeID) NodeID {
	rec := b.G.Invocation(inv)
	id := b.G.AddNode(Node{Class: ClassP, Type: TypeModuleInput, Op: OpTimes, Inv: inv})
	b.G.AddEdge(tupleProv, id)
	b.G.AddEdge(rec.MNode, id)
	b.G.addAnchor(inv, AnchorInput, id)
	return id
}

// ModuleOutput creates an "o" node (·-labeled) for a tuple produced by the
// invocation, with edges from the tuple's derivation node, the m-node, and
// any computed value nodes that are part of the tuple (e.g. the calcBid
// value N80 feeding output node N90 in Figure 2(c)).
func (b *Builder) ModuleOutput(inv InvID, derivation NodeID, valueNodes ...NodeID) NodeID {
	rec := b.G.Invocation(inv)
	id := b.G.AddNode(Node{Class: ClassP, Type: TypeModuleOutput, Op: OpTimes, Inv: inv})
	b.G.AddEdge(derivation, id)
	b.G.AddEdge(rec.MNode, id)
	for _, v := range valueNodes {
		b.G.AddEdge(v, id)
	}
	b.G.addAnchor(inv, AnchorOutput, id)
	return id
}

// BaseTuple creates the p-node carrying the identifier (provenance token)
// of a state or source tuple.
func (b *Builder) BaseTuple(token string) NodeID {
	return b.G.AddNode(Node{Class: ClassP, Type: TypeBaseTuple, Label: token})
}

// StateTuple creates an "s" node (·-labeled) for a state tuple used by the
// invocation, with edges from the tuple's base p-node and from the m-node.
func (b *Builder) StateTuple(inv InvID, base NodeID) NodeID {
	rec := b.G.Invocation(inv)
	id := b.G.AddNode(Node{Class: ClassP, Type: TypeState, Op: OpTimes, Inv: inv})
	b.G.AddEdge(base, id)
	b.G.AddEdge(rec.MNode, id)
	b.G.addAnchor(inv, AnchorState, id)
	return id
}

// ZoomNode creates a zoomed-out module invocation node (the rounded
// rectangles of Figure 2(b)); used when tracking coarse-grained provenance
// directly, where a module's internals are never materialized.
func (b *Builder) ZoomNode(inv InvID) NodeID {
	rec := b.G.Invocation(inv)
	return b.G.AddNode(Node{Class: ClassP, Type: TypeZoom, Label: rec.Module, Inv: inv})
}

// Project creates the FOREACH-projection node: a +-labeled p-node with
// incoming edges from every contributing tuple's p-node.
func (b *Builder) Project(sources ...NodeID) NodeID {
	id := b.G.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
	for _, s := range sources {
		b.G.AddEdge(s, id)
	}
	return id
}

// Join creates the JOIN node: a ·-labeled p-node with incoming edges from
// the two joined tuples' p-nodes.
func (b *Builder) Join(left, right NodeID) NodeID {
	id := b.G.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpTimes})
	b.G.AddEdge(left, id)
	b.G.AddEdge(right, id)
	return id
}

// Product creates a ·-labeled p-node over an arbitrary number of sources
// (used by multi-way joins and FLATTEN's outer·inner combination).
func (b *Builder) Product(sources ...NodeID) NodeID {
	id := b.G.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpTimes})
	for _, s := range sources {
		b.G.AddEdge(s, id)
	}
	return id
}

// Group creates the GROUP/COGROUP/DISTINCT node: a δ-labeled p-node with
// incoming edges from the p-nodes of the tuples in the group (the paper's
// shorthand for attaching them to a + node and then a δ node).
func (b *Builder) Group(members ...NodeID) NodeID {
	id := b.G.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpDelta})
	for _, m := range members {
		b.G.AddEdge(m, id)
	}
	return id
}

// Union creates a +-labeled p-node merging alternative derivations of the
// same tuple. With a single source the source node itself is returned
// (annotation unchanged).
func (b *Builder) Union(sources ...NodeID) NodeID {
	if len(sources) == 1 {
		return sources[0]
	}
	return b.Project(sources...)
}

// AggContribution is one tuple's contribution to an aggregate: the p-node
// of the contributing tuple and the value being aggregated.
type AggContribution struct {
	TupleProv NodeID
	Value     nested.Value
}

// Aggregate creates the FOREACH-aggregation value nodes: an op-labeled
// v-node (e.g. Count in Figure 2(c), node N70) plus, in the full
// construction, one ⊗ v-node per contribution with edges from the
// contribution's interned constant v-node and its tuple p-node.
// result is the computed aggregate value stored on the op node.
func (b *Builder) Aggregate(op string, contributions []AggContribution, result nested.Value) NodeID {
	agg := b.G.AddNode(Node{Class: ClassV, Type: TypeValue, Op: OpAgg, Label: op, Value: result})
	for _, c := range contributions {
		if b.SimplifiedAgg {
			b.G.AddEdge(c.TupleProv, agg)
			continue
		}
		tensor := b.G.AddNode(Node{Class: ClassV, Type: TypeValue, Op: OpTensor})
		b.G.AddEdge(b.G.ConstNode(c.Value), tensor)
		b.G.AddEdge(c.TupleProv, tensor)
		b.G.AddEdge(tensor, agg)
	}
	return agg
}

// BlackBox creates the node for a UDF application BB(t1,...,tn): a node
// labeled with the function name with edges from the argument nodes. The
// node is a v-node when the function computes a value embedded in a tuple
// (asValue true, e.g. calcBid's N80), or a p-node when the function's
// output stands alone.
func (b *Builder) BlackBox(name string, asValue bool, result nested.Value, args ...NodeID) NodeID {
	class := ClassP
	typ := TypeOp
	if asValue {
		class = ClassV
		typ = TypeValue
	}
	id := b.G.AddNode(Node{Class: class, Type: typ, Op: OpBB, Label: name, Value: result})
	for _, a := range args {
		b.G.AddEdge(a, id)
	}
	return id
}

// MergeDerivations wraps alternative derivations of one result tuple:
// a single derivation keeps its node; several merge under a + node
// (the N[X] reading: the tuple's annotation is the sum over derivations).
func (b *Builder) MergeDerivations(derivations []NodeID) NodeID {
	switch len(derivations) {
	case 0:
		return InvalidNode
	case 1:
		return derivations[0]
	default:
		return b.Project(derivations...)
	}
}
