package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
)

// miniWorkflow builds a 3-node workflow: source -> stateful filter+join ->
// aggregate, small enough to reason about exactly.
func miniWorkflow(t *testing.T) *workflow.Workflow {
	t.Helper()
	str := nested.ScalarType(nested.KindString)
	flt := nested.ScalarType(nested.KindFloat)
	itemsSchema := nested.NewSchema(
		nested.Field{Name: "Sku", Type: str},
		nested.Field{Name: "Price", Type: flt},
	)
	reqSchema := nested.NewSchema(nested.Field{Name: "Sku", Type: str})
	outSchema := nested.NewSchema(nested.Field{Name: "Total", Type: flt})

	src := &workflow.Module{Name: "M_src", Out: nested.RelationSchemas{"Req": reqSchema}}
	match := &workflow.Module{
		Name:  "M_match",
		In:    nested.RelationSchemas{"Req": reqSchema},
		State: nested.RelationSchemas{"Items": itemsSchema},
		Out:   nested.RelationSchemas{"Matches": itemsSchema},
		Program: `
MJ = JOIN Items BY Sku, Req BY Sku;
Matches = FOREACH MJ GENERATE Items::Sku AS Sku, Items::Price AS Price;
`,
		Registry: pig.NewRegistry(),
	}
	agg := &workflow.Module{
		Name: "M_total",
		In:   nested.RelationSchemas{"Matches": itemsSchema},
		Out:  nested.RelationSchemas{"Totals": outSchema},
		Program: `
G = GROUP Matches BY 1;
Totals = FOREACH G GENERATE SUM(Matches.Price) AS Total;
`,
	}
	w := workflow.New()
	for name, m := range map[string]*workflow.Module{"src": src, "match": match, "total": agg} {
		if err := w.AddNode(name, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddEdge("src", "match", "Req"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddEdge("match", "total", "Matches"); err != nil {
		t.Fatal(err)
	}
	w.In = []string{"src"}
	w.Out = []string{"total"}
	return w
}

func trackMini(t *testing.T) *Tracker {
	t.Helper()
	tr, err := NewTracker(miniWorkflow(t), workflow.Fine)
	if err != nil {
		t.Fatal(err)
	}
	items := nested.NewBag(
		nested.NewTuple(nested.Str("A"), nested.Float(10)),
		nested.NewTuple(nested.Str("A"), nested.Float(12)),
		nested.NewTuple(nested.Str("B"), nested.Float(99)),
	)
	if err := tr.Runner().SetState("M_match", "Items", items, "item"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Execute(workflow.Inputs{"src": {"Req": nested.NewBag(nested.NewTuple(nested.Str("A")))}}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrackerRoundTripThroughDisk(t *testing.T) {
	tr := trackMini(t)
	path := filepath.Join(t.TempDir(), "run.lpsk")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	qp, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !qp.Graph().StructurallyEqual(tr.Runner().Graph()) {
		t.Error("loaded graph differs from the tracked graph")
	}
	if outs, err := qp.Outputs(); err != nil || len(outs) != 1 {
		t.Fatalf("outputs = %v, %v", outs, err)
	}
	dump, ok, err := qp.Output(0, "total", "Totals")
	if err != nil || !ok || len(dump.Tuples) != 1 {
		t.Fatalf("missing Totals output (%v)", err)
	}
	if !dump.Tuples[0].Tuple.Equal(nested.NewTuple(nested.Float(22))) {
		t.Errorf("total = %v, want 22", dump.Tuples[0].Tuple)
	}
}

func TestReadFromStream(t *testing.T) {
	tr := trackMini(t)
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	qp, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if qp.Graph().NumNodes() == 0 {
		t.Error("empty graph after stream read")
	}
}

func TestFindOutputTupleAndDependency(t *testing.T) {
	tr := trackMini(t)
	qp := FromTracker(tr)
	total, ok, err := qp.FindOutputTuple("total", "Totals", nested.NewTuple(nested.Float(22)))
	if err != nil || !ok {
		t.Fatal("total tuple not found")
	}
	// The total depends on the request...
	inputs := qp.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeWorkflowInput}})
	if len(inputs) != 1 {
		t.Fatalf("inputs = %v", inputs)
	}
	if !qp.DependsOn(total, inputs[0]) {
		t.Error("total should depend on the request")
	}
	// ...but not on any single matching item (two A items; the SUM and the
	// group survive losing one).
	items := qp.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeBaseTuple}})
	if len(items) != 3 {
		t.Fatalf("base tuples = %d", len(items))
	}
	for _, item := range items {
		if qp.DependsOn(total, item) {
			t.Errorf("total should not existentially depend on item %d", item)
		}
	}
}

func TestWhatIfVersusApplyDelete(t *testing.T) {
	tr := trackMini(t)
	qp := FromTracker(tr)
	items := qp.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeBaseTuple}, Label: "item0"})
	if len(items) != 1 {
		t.Fatalf("item0 nodes = %v", items)
	}
	before := qp.Graph().NumNodes()
	whatIf := qp.WhatIfDelete(items[0])
	if whatIf.Size() == 0 {
		t.Error("deleting a matched item must remove something")
	}
	if qp.Graph().NumNodes() != before {
		t.Error("WhatIfDelete must not modify the graph")
	}
	res, recs := NewSession(qp).ApplyDelete(items[0])
	if res.Size() != whatIf.Size() {
		t.Error("ApplyDelete should remove what WhatIfDelete predicted")
	}
	if qp.Graph().NumNodes() != before {
		t.Error("a session's ApplyDelete must not modify the processor's graph")
	}
	// The SUM over {10, 12} must be recomputed to 12 after deleting the
	// 10-priced item (item0).
	found := false
	for _, rec := range recs {
		if rec.Op == "SUM" && rec.After.Equal(nested.Float(12)) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected SUM recomputation to 12, got %v", recs)
	}
}

// TestSessionDeleteChecksIDsUnderOneHold: Session.Delete refuses an id
// outside the view before deleting anything, and otherwise answers what
// WhatIfDelete and ApplyDelete answer, with the view after the deletion.
func TestSessionDeleteChecksIDsUnderOneHold(t *testing.T) {
	qp := FromTracker(trackMini(t))
	items := qp.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeBaseTuple}, Label: "item0"})
	if len(items) != 1 {
		t.Fatalf("item0 nodes = %v", items)
	}
	s := NewSession(qp)
	total := s.TotalNodes()
	bad := provgraph.NodeID(total)
	err := s.Delete([]provgraph.NodeID{items[0], bad}, false, func(View, *provgraph.DeletionResult, []provgraph.RecomputedAggregate) {
		t.Error("fn ran for a refused deletion")
	})
	var rng *NodeRangeError
	if !errors.As(err, &rng) || rng.ID != bad || rng.Total != total {
		t.Fatalf("Delete with an id past the view = %v", err)
	}
	if s.Changes() != 0 {
		t.Fatalf("a refused deletion changed the session (%d changes)", s.Changes())
	}

	want := qp.WhatIfDelete(items[0]).Removed
	for _, whatIf := range []bool{true, false} {
		var removed []provgraph.NodeID
		var nodesAfter, recomputed int
		if err := s.Delete(items[:1], whatIf, func(v View, res *provgraph.DeletionResult, recs []provgraph.RecomputedAggregate) {
			removed, nodesAfter, recomputed = res.Removed, v.Graph.NumNodes(), len(recs)
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(removed, want) {
			t.Errorf("whatIf=%v: removed %v, want %v", whatIf, removed, want)
		}
		wantAfter := qp.Graph().NumNodes()
		if !whatIf {
			wantAfter -= len(want)
		}
		if nodesAfter != wantAfter || (recomputed > 0) == whatIf {
			t.Errorf("whatIf=%v: %d nodes after, %d aggregates recomputed", whatIf, nodesAfter, recomputed)
		}
	}
}

func TestZoomStack(t *testing.T) {
	tr := trackMini(t)
	qp := FromTracker(tr)
	s := NewSession(qp)

	if _, err := s.ZoomOut("M_match"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ZoomOut("M_match"); err == nil {
		t.Error("double zoom-out of the same module accepted")
	}
	if _, err := s.ZoomOut("M_nope"); err == nil {
		t.Error("zooming unknown module accepted")
	}
	if _, err := s.ZoomOut(); err == nil {
		t.Error("zoom-out of no module accepted")
	}
	if got := s.ZoomedOut(); len(got) != 1 || got[0] != "M_match" {
		t.Errorf("ZoomedOut = %v", got)
	}
	if _, err := s.ZoomOut("M_total"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ZoomIn(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ZoomIn(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ZoomIn(); err == nil {
		t.Error("ZoomIn with empty stack accepted")
	}
	if !provgraph.ViewsStructurallyEqual(sessionView(s), qp.Graph()) || s.Changes() != 0 {
		t.Error("zoom stack did not restore the original graph")
	}
}

func TestCoarseView(t *testing.T) {
	tr := trackMini(t)
	qp := FromTracker(tr)
	s := NewSession(qp)
	if _, err := s.CoarseView(); err != nil {
		t.Fatal(err)
	}
	sessionView(s).Nodes(func(n provgraph.Node) bool {
		switch n.Type {
		case provgraph.TypeOp, provgraph.TypeState:
			t.Errorf("coarse view contains %s node", n.Type)
		}
		return true
	})
	// Coarse view: total now *does* depend on every item? No — items are
	// hidden entirely; inputs remain.
	if len(s.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeBaseTuple}})) != 0 {
		t.Error("coarse view should hide state base tuples")
	}
	if rec, err := s.CoarseView(); rec != nil || err != nil {
		t.Errorf("CoarseView of a coarse view = %v, %v; want nil, nil", rec, err)
	}
	if _, err := s.ZoomIn(); err != nil {
		t.Fatal(err)
	}
	if len(s.ZoomedOut()) != 0 {
		t.Error("zoom bookkeeping broken")
	}
}

func TestLineageAndFilters(t *testing.T) {
	tr := trackMini(t)
	qp := FromTracker(tr)
	total, _, _ := qp.FindOutputTuple("total", "Totals", nested.NewTuple(nested.Float(22)))
	l := qp.Lineage(total)
	if len(l.Inputs) != 1 {
		t.Errorf("lineage inputs = %v", l.Inputs)
	}
	if len(l.StateTuples) != 2 {
		t.Errorf("lineage state tuples = %d, want 2 (the two A items)", len(l.StateTuples))
	}
	wantModules := []string{"M_match", "M_total"}
	if len(l.Modules) != 2 || l.Modules[0] != wantModules[0] || l.Modules[1] != wantModules[1] {
		t.Errorf("lineage modules = %v", l.Modules)
	}
	if l.AncestorCount == 0 {
		t.Error("no ancestors")
	}

	// Filters.
	aggs := qp.FindNodes(NodeFilter{Ops: []provgraph.Op{provgraph.OpAgg}})
	if len(aggs) != 1 || qp.Graph().Node(aggs[0]).Label != "SUM" {
		t.Errorf("agg nodes = %v", aggs)
	}
	matchNodes := qp.FindNodes(NodeFilter{Module: "M_match", Types: []provgraph.Type{provgraph.TypeModuleOutput}})
	if len(matchNodes) != 2 {
		t.Errorf("M_match outputs = %d, want 2", len(matchNodes))
	}
	vnodes := qp.FindNodes(NodeFilter{Classes: []provgraph.Class{provgraph.ClassV}})
	if len(vnodes) == 0 {
		t.Error("no value nodes found")
	}
}

func TestExprAndPolynomial(t *testing.T) {
	tr := trackMini(t)
	qp := FromTracker(tr)
	total, _, _ := qp.FindOutputTuple("total", "Totals", nested.NewTuple(nested.Float(22)))
	p := qp.Polynomial(total)
	if p.IsZero() {
		t.Error("polynomial of a derived tuple must be nonzero")
	}
	e := qp.Expr(total)
	if e.String() == "" {
		t.Error("empty expression")
	}
}
