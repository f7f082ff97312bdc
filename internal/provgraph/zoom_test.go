package provgraph

import (
	"fmt"
	"testing"
)

// TestIntermediateNodes reproduces Example 4.1: N60 and N70 are
// intermediate computations of the dealer1 invocation; the aggregator's
// input node is not (every path to it passes through the output N90).
func TestIntermediateNodes(t *testing.T) {
	f := buildDealershipFixture()
	inter := toSet(f.g.IntermediateNodes(map[string]bool{"M_dealer1": true}))
	for _, want := range []NodeID{f.n50, f.n60, f.n61, f.n70, f.n71, f.n75, f.n80} {
		if !inter[want] {
			t.Errorf("node %d should be intermediate for dealer1", want)
		}
	}
	for _, not := range []NodeID{f.n41, f.n90, f.iAgg1, f.n110, f.oAgg, f.n42, f.n01} {
		if inter[not] {
			t.Errorf("node %d must not be intermediate for dealer1", not)
		}
	}
}

func TestZoomOutDealer1(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	rec := ov.ZoomOut("M_dealer1")

	// Internals, state nodes and exclusive base tuples are hidden.
	for _, id := range []NodeID{f.n50, f.n60, f.n61, f.n70, f.n71, f.n75, f.n80, f.n42, f.n43, f.n01, f.n02} {
		if ov.Alive(id) {
			t.Errorf("node %d should be hidden after ZoomOut", id)
		}
	}
	// Module boundary nodes survive.
	for _, id := range []NodeID{f.n41, f.n90, f.iAgg1, f.n110, f.oAgg} {
		if !ov.Alive(id) {
			t.Errorf("node %d should survive ZoomOut", id)
		}
	}
	// One zoom node wired input -> zoom -> output.
	zs := rec.ZoomNodes()
	if len(zs) != 1 {
		t.Fatalf("zoom nodes = %d, want 1", len(zs))
	}
	z := zs[0]
	if got := ov.Node(z); got.Type != TypeZoom || got.Label != "M_dealer1" {
		t.Errorf("zoom node = %+v", got)
	}
	if !containsID(ov.Out(f.n41), z) || !containsID(ov.Out(z), f.n90) {
		t.Error("zoom node must connect invocation input to output")
	}
	if !ov.Materialize().IsAcyclic() {
		t.Error("zoomed graph must stay acyclic")
	}

	// ZoomIn restores the original structure exactly.
	ov.ZoomIn(rec)
	if !ViewsStructurallyEqual(ov, f.g) {
		t.Error("ZoomIn(ZoomOut(G,M),M) != G")
	}
}

// TestZoomOutAggregateOnly: zooming the aggregator hides its δ and MIN but
// keeps all of dealer1's internals.
func TestZoomOutAggregate(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	ov.ZoomOut("M_agg")
	if ov.Alive(f.n110) || ov.Alive(f.aggMin) {
		t.Error("aggregator internals should be hidden")
	}
	for _, id := range []NodeID{f.n50, f.n60, f.n70, f.n80, f.n90, f.iAgg1, f.oAgg} {
		if !ov.Alive(id) {
			t.Errorf("node %d should survive aggregator zoom", id)
		}
	}
}

// TestCoarseGrained: zooming out every module yields the coarse-grained
// graph of Section 3.1 — only workflow inputs, invocation, module
// input/output, and zoom nodes remain.
func TestCoarseGrained(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	rec := ov.ZoomOut("M_and", "M_dealer1", "M_dealer2", "M_agg")
	ov.Nodes(func(n Node) bool {
		switch n.Type {
		case TypeWorkflowInput, TypeInvocation, TypeModuleInput, TypeModuleOutput, TypeZoom:
			return true
		default:
			t.Errorf("coarse graph contains %s node %d (%s)", n.Type, n.ID, n.Label)
			return true
		}
	})
	// Four invocations -> four zoom nodes.
	if len(rec.ZoomNodes()) != 4 {
		t.Errorf("zoom nodes = %d, want 4", len(rec.ZoomNodes()))
	}
	// Output still depends on the input through the coarse graph.
	anc := toSet(ov.Ancestors(f.oAgg))
	if !anc[f.n00] {
		t.Error("coarse graph must preserve input->output reachability")
	}
	ov.ZoomIn(rec)
	if !ViewsStructurallyEqual(ov, f.g) {
		t.Error("ZoomIn must undo the coarse-grained zoom")
	}
}

// TestZoomTwoModulesIndependent: zooming two modules then restoring them in
// reverse order restores the original graph.
func TestZoomNesting(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	rec1 := ov.ZoomOut("M_dealer1")
	rec2 := ov.ZoomOut("M_agg")
	if ov.Alive(f.n60) || ov.Alive(f.n110) {
		t.Error("both modules should be zoomed out")
	}
	ov.ZoomIn(rec2)
	if !ov.Alive(f.n110) {
		t.Error("aggregator should be restored")
	}
	if ov.Alive(f.n60) {
		t.Error("dealer1 should remain zoomed")
	}
	ov.ZoomIn(rec1)
	if !ViewsStructurallyEqual(ov, f.g) {
		t.Error("nested zooms did not restore the original graph")
	}
}

// TestZoomOutSharedState: a base tuple feeding state of two different
// modules must survive when only one of them is zoomed out.
func TestZoomOutSharedState(t *testing.T) {
	b := NewBuilder()
	in := b.WorkflowInput("I")
	base := b.BaseTuple("shared")
	invA := b.BeginInvocation("A", "a", 0)
	iA := b.ModuleInput(invA, in)
	sA := b.StateTuple(invA, base)
	joinA := b.Join(iA, sA)
	oA := b.ModuleOutput(invA, joinA)
	invB := b.BeginInvocation("B", "b", 0)
	iB := b.ModuleInput(invB, oA)
	sB := b.StateTuple(invB, base)
	joinB := b.Join(iB, sB)
	b.ModuleOutput(invB, joinB)

	ov := NewOverlay(b.G)
	ov.ZoomOut("A")
	if !ov.Alive(base) {
		t.Error("shared base tuple must survive zooming out only module A")
	}
	if !ov.Alive(sB) {
		t.Error("B's state node must survive")
	}
	if ov.Alive(sA) || ov.Alive(joinA) {
		t.Error("A's state node and internals must be hidden")
	}
}

// TestSubgraphQuery checks the subgraph query on the fixture: the subgraph
// of car C2 contains its descendants plus the sibling join of C3.
func TestSubgraphQuery(t *testing.T) {
	f := buildDealershipFixture()
	sub := f.g.Subgraph(f.n01)
	if !sub.Contains(f.n01) {
		t.Error("subgraph must contain its root")
	}
	for _, want := range []NodeID{f.n42, f.n60, f.n71, f.n70, f.n90, f.oAgg} {
		if !sub.Contains(want) {
			t.Errorf("subgraph of C2 should contain descendant %d", want)
		}
	}
	// n61 is a sibling of descendant n60 (both derived from n50).
	if !sub.Contains(f.n61) {
		t.Error("subgraph should contain sibling join of C3")
	}
	if sub.Size() != len(sub.Nodes) {
		t.Error("size mismatch")
	}
	// A pure sink's subgraph is its ancestors only (plus itself).
	sub2 := f.g.Subgraph(f.oAgg)
	if sub2.Contains(f.oD2) != true {
		t.Error("subgraph of final output should include all contributing bids")
	}
}

func containsID(ids []NodeID, want NodeID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// TestZoomOrphanCascadeMatchesReference pins the id-order semantics of
// ZoomOut's orphan sweep, which the candidate sweep must keep: hiding an
// orphan orphans its in-neighbors, and the sweep hides those with larger
// ids (it reaches them later) but not those it has already passed.
func TestZoomOrphanCascadeMatchesReference(t *testing.T) {
	b := NewBuilder()
	inv := b.BeginInvocation("A", "a", 0)
	b.ModuleOutput(inv, b.ModuleInput(inv, b.WorkflowInput("I")))
	g := b.G
	lo := b.BaseTuple("lo")
	k := b.BaseTuple("k") // no out-edges: an orphan before any zoom
	hi := b.BaseTuple("hi")
	c := g.AddNode(Node{Class: ClassV, Type: TypeValue, Op: OpConst})
	g.AddEdge(lo, k)
	g.AddEdge(hi, k)
	g.AddEdge(c, hi)

	got := NewOverlay(g)
	rec := zoomOutOf(got, []string{"A"}, modulesInvocations(g, []string{"A"}))
	for name, want := range map[string]mutableView{"graph": g.Clone(), "overlay": NewOverlay(g)} {
		if ref := refZoomOutOf(want, "A"); fmt.Sprint(rec.hidden) != fmt.Sprint(ref.hidden) {
			t.Errorf("reference on a %s: hidden %v, reference %v", name, rec.hidden, ref.hidden)
		}
	}
	if !got.Alive(lo) || got.Alive(k) || got.Alive(hi) || got.Alive(c) {
		t.Errorf("want lo live and k, hi, c hidden; alive = %v %v %v %v",
			got.Alive(lo), got.Alive(k), got.Alive(hi), got.Alive(c))
	}
}
