package provgraph

import (
	"strings"
	"testing"

	"lipstick/internal/nested"
)

func TestFixtureShape(t *testing.T) {
	f := buildDealershipFixture()
	g := f.g
	if !g.IsAcyclic() {
		t.Fatal("fixture graph must be acyclic")
	}
	s := g.ComputeStats()
	if s.Invocations != 4 {
		t.Errorf("invocations = %d, want 4", s.Invocations)
	}
	if s.ByType[TypeInvocation] != 4 || s.ByType[TypeWorkflowInput] != 1 {
		t.Errorf("node type counts wrong: %v", s.ByType)
	}
	if s.ByType[TypeState] != 2 || s.ByType[TypeBaseTuple] != 2 {
		t.Errorf("state/base counts wrong: %v", s.ByType)
	}
	if s.PNodes+s.VNodes != s.Nodes {
		t.Error("class counts do not add up")
	}
	// Full aggregation construction: 2 aggregates, 4 tensors, interned
	// consts (1, 20000, 22000 → 3 nodes), 1 BB value node.
	if s.VNodes != 2+4+3+1 {
		t.Errorf("v-node count = %d, want 10", s.VNodes)
	}
}

func TestConstInterning(t *testing.T) {
	g := New()
	a := g.ConstNode(nested.Int(5))
	b := g.ConstNode(nested.Int(5))
	c := g.ConstNode(nested.Int(6))
	if a != b {
		t.Error("equal constants should intern to one node")
	}
	if a == c {
		t.Error("distinct constants must not intern together")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	f := buildDealershipFixture()
	g := f.g
	anc := toSet(g.Ancestors(f.n90))
	for _, want := range []NodeID{f.n00, f.n01, f.n02, f.n41, f.n50, f.n60, f.n61, f.n70, f.n75, f.n80} {
		if !anc[want] {
			t.Errorf("node %d should be an ancestor of the bid", want)
		}
	}
	if anc[f.oD2] {
		t.Error("dealer2 output must not be an ancestor of dealer1's bid")
	}
	desc := toSet(g.Descendants(f.n01))
	for _, want := range []NodeID{f.n42, f.n60, f.n71, f.n70, f.n90, f.oAgg} {
		if !desc[want] {
			t.Errorf("node %d should be a descendant of car C2", want)
		}
	}
	if desc[f.n02] || desc[f.n00] {
		t.Error("C3 / I1 are not descendants of C2")
	}
}

func TestRootsAndSinks(t *testing.T) {
	f := buildDealershipFixture()
	roots := toSet(f.g.Roots())
	if !roots[f.n00] || !roots[f.n01] || !roots[f.n02] {
		t.Error("workflow input and base tuples must be roots")
	}
	mAnd := f.g.Invocation(f.invAnd).MNode
	if !roots[mAnd] {
		t.Error("m-nodes must be roots")
	}
	sinks := toSet(f.g.Sinks())
	if !sinks[f.oAgg] {
		t.Error("final output must be a sink")
	}
}

func TestTopDownOrderRespectsEdges(t *testing.T) {
	f := buildDealershipFixture()
	order := f.g.TopDownOrder()
	pos := make(map[NodeID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	f.g.Nodes(func(n Node) bool {
		for _, dst := range f.g.Out(n.ID) {
			if pos[n.ID] >= pos[dst] {
				t.Errorf("edge %d->%d violates topological order", n.ID, dst)
			}
		}
		return true
	})
	if len(order) != f.g.NumNodes() {
		t.Error("order must cover all live nodes")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := buildDealershipFixture()
	c := f.g.Clone()
	if !f.g.StructurallyEqual(c) {
		t.Fatal("clone should be structurally equal")
	}
	RefDelete(c, f.n00)
	if f.g.NumNodes() != f.g.TotalNodes() {
		t.Error("deleting in clone affected original")
	}
	if f.g.StructurallyEqual(c) {
		t.Error("clone should now differ")
	}
}

func TestStructurallyEqualDetectsEdgeChange(t *testing.T) {
	f1 := buildDealershipFixture()
	f2 := buildDealershipFixture()
	if !f1.g.StructurallyEqual(f2.g) {
		t.Fatal("identical constructions should be equal")
	}
	f2.g.AddEdge(f2.n00, f2.n50)
	if f1.g.StructurallyEqual(f2.g) {
		t.Error("extra edge should break equality")
	}
}

func TestDOTOutput(t *testing.T) {
	f := buildDealershipFixture()
	dot := f.g.DOT("dealers")
	for _, want := range []string{"digraph", "M_dealer1 [m]", "calcBid", "COUNT", "· [i]", "· [s]", "I:I1", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Zoomed graph renders zoom nodes as rounded boxes.
	ov := NewOverlay(f.g)
	ov.ZoomOut("M_dealer1")
	var coarse strings.Builder
	if err := ov.WriteDOT(&coarse, "coarse"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coarse.String(), "style=rounded") {
		t.Error("zoomed DOT should contain rounded zoom node")
	}
}

func TestNodeAndOpStrings(t *testing.T) {
	if ClassP.String() != "p" || ClassV.String() != "v" {
		t.Error("class strings")
	}
	typeNames := map[Type]string{
		TypeWorkflowInput: "I", TypeInvocation: "m", TypeModuleInput: "i",
		TypeModuleOutput: "o", TypeState: "s", TypeBaseTuple: "tuple",
		TypeOp: "op", TypeValue: "value", TypeZoom: "zoom",
	}
	for ty, want := range typeNames {
		if ty.String() != want {
			t.Errorf("Type(%d).String() = %q, want %q", ty, ty.String(), want)
		}
	}
	opNames := map[Op]string{
		OpNone: "", OpPlus: "+", OpTimes: "·", OpDelta: "δ",
		OpTensor: "⊗", OpAgg: "agg", OpBB: "bb", OpConst: "const",
	}
	for op, want := range opNames {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestInvocationsOf(t *testing.T) {
	f := buildDealershipFixture()
	if len(f.g.InvocationsOf("M_dealer1")) != 1 {
		t.Error("expected one dealer1 invocation")
	}
	if len(f.g.InvocationsOf("nope")) != 0 {
		t.Error("unknown module should have no invocations")
	}
	count := 0
	f.g.Invocations(func(*Invocation) bool { count++; return true })
	if count != f.g.NumInvocations() {
		t.Error("Invocations iteration mismatch")
	}
}

func toSet(ids []NodeID) map[NodeID]bool {
	m := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}
