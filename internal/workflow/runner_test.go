package workflow

import (
	"fmt"
	"strings"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
)

func strT() nested.Type { return nested.ScalarType(nested.KindString) }
func fltT() nested.Type { return nested.ScalarType(nested.KindFloat) }

func requestsSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "UserId", Type: strT()},
		nested.Field{Name: "BidId", Type: strT()},
		nested.Field{Name: "Model", Type: strT()},
	)
}

func bidsSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "Model", Type: strT()},
		nested.Field{Name: "Amount", Type: fltT()},
	)
}

// testCalcBid prices a bid at 30000 - 1000*NumAvail.
func testCalcBid() *pig.UDF {
	return &pig.UDF{
		Name: "CalcBid",
		OutSchema: nested.NewSchema(
			nested.Field{Name: "BidId", Type: strT()},
			nested.Field{Name: "Model", Type: strT()},
			nested.Field{Name: "Amount", Type: fltT()},
		),
		Fn: func(args []nested.Value) (*nested.Bag, error) {
			reqs := args[0].AsBag()
			out := nested.NewBag()
			avail := int64(0)
			if args[1].Kind() == nested.KindBag && len(args[1].AsBag().Tuples) > 0 {
				avail = args[1].AsBag().Tuples[0].Fields[1].AsInt()
			}
			for _, req := range reqs.Tuples {
				out.Add(nested.NewTuple(req.Fields[1], req.Fields[2], nested.Float(30000-1000*float64(avail))))
			}
			return out, nil
		},
	}
}

// dealerModule builds dealer k with output relation Bids<k>.
func dealerModule(k int) *Module {
	reg := pig.NewRegistry()
	reg.MustRegister(testCalcBid())
	bidRel := fmt.Sprintf("Bids%d", k)
	program := fmt.Sprintf(`
ReqModel = FOREACH Requests GENERATE Model;
Inventory = JOIN Cars BY Model, ReqModel BY Model;
CarsByModel = GROUP Inventory BY Cars::Model;
NumCarsByModel = FOREACH CarsByModel GENERATE group AS Model, COUNT(Inventory) AS NumAvail;
AllInfo = COGROUP Requests BY Model, NumCarsByModel BY Model;
NewBids = FOREACH AllInfo GENERATE FLATTEN(CalcBid(Requests, NumCarsByModel));
InventoryBids = UNION InventoryBids, NewBids;
%s = FOREACH NewBids GENERATE Model, Amount;
`, bidRel)
	return &Module{
		Name: fmt.Sprintf("M_dealer%d", k),
		In:   nested.RelationSchemas{"Requests": requestsSchema()},
		State: nested.RelationSchemas{
			"Cars": nested.NewSchema(
				nested.Field{Name: "CarId", Type: strT()},
				nested.Field{Name: "Model", Type: strT()},
			),
			"InventoryBids": nested.NewSchema(
				nested.Field{Name: "BidId", Type: strT()},
				nested.Field{Name: "Model", Type: strT()},
				nested.Field{Name: "Amount", Type: fltT()},
			),
		},
		Out:      nested.RelationSchemas{bidRel: bidsSchema()},
		Program:  program,
		Registry: reg,
	}
}

func aggModule() *Module {
	return &Module{
		Name: "M_agg",
		In: nested.RelationSchemas{
			"Bids1": bidsSchema(),
			"Bids2": bidsSchema(),
		},
		Out: nested.RelationSchemas{"Best": nested.NewSchema(
			nested.Field{Name: "Model", Type: strT()},
			nested.Field{Name: "Price", Type: fltT()},
		)},
		Program: `
AllBids = UNION Bids1, Bids2;
ByModel = GROUP AllBids BY Model;
Best = FOREACH ByModel GENERATE group AS Model, MIN(AllBids.Amount) AS Price;
`,
	}
}

func requestModule() *Module {
	return &Module{
		Name: "M_req",
		Out:  nested.RelationSchemas{"Requests": requestsSchema()},
	}
}

// buildTestWorkflow assembles req -> {dealer1, dealer2} -> agg.
func buildTestWorkflow(t *testing.T) *Workflow {
	t.Helper()
	w := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddNode("req", requestModule()))
	must(w.AddNode("dealer1", dealerModule(1)))
	must(w.AddNode("dealer2", dealerModule(2)))
	must(w.AddNode("agg", aggModule()))
	must(w.AddEdge("req", "dealer1", "Requests"))
	must(w.AddEdge("req", "dealer2", "Requests"))
	must(w.AddEdge("dealer1", "agg", "Bids1"))
	must(w.AddEdge("dealer2", "agg", "Bids2"))
	w.In = []string{"req"}
	w.Out = []string{"agg"}
	return w
}

func carsBag(rows ...[2]string) *nested.Bag {
	bag := nested.NewBag()
	for _, r := range rows {
		bag.Add(nested.NewTuple(nested.Str(r[0]), nested.Str(r[1])))
	}
	return bag
}

func requestBag(user, bid, model string) *nested.Bag {
	return nested.NewBag(nested.NewTuple(nested.Str(user), nested.Str(bid), nested.Str(model)))
}

func seedDealers(t *testing.T, r *Runner) {
	t.Helper()
	// Dealer 1 has two Civics (cheaper bid), dealer 2 has one.
	if err := r.SetState("M_dealer1", "Cars", carsBag([2]string{"C1", "Accord"}, [2]string{"C2", "Civic"}, [2]string{"C3", "Civic"}), "d1.car"); err != nil {
		t.Fatal(err)
	}
	if err := r.SetState("M_dealer2", "Cars", carsBag([2]string{"D1", "Civic"}), "d2.car"); err != nil {
		t.Fatal(err)
	}
}

func TestWorkflowValidate(t *testing.T) {
	w := buildTestWorkflow(t)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "req" || order[len(order)-1] != "agg" {
		t.Errorf("topo order = %v", order)
	}
}

func TestWorkflowValidationErrors(t *testing.T) {
	// Unknown edge endpoint.
	w := New()
	if err := w.AddNode("a", requestModule()); err != nil {
		t.Fatal(err)
	}
	if err := w.AddEdge("a", "missing", "Requests"); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := w.AddNode("a", requestModule()); err == nil {
		t.Error("duplicate node accepted")
	}

	// Relation not an output of the source module.
	w2 := New()
	_ = w2.AddNode("req", requestModule())
	_ = w2.AddNode("agg", aggModule())
	_ = w2.AddEdge("req", "agg", "Bids1")
	w2.In = []string{"req"}
	if err := w2.Validate(); err == nil {
		t.Error("invalid edge relation accepted")
	}

	// Missing input coverage: agg lacks Bids2.
	w3 := New()
	_ = w3.AddNode("req", requestModule())
	_ = w3.AddNode("dealer1", dealerModule(1))
	_ = w3.AddNode("agg", aggModule())
	_ = w3.AddEdge("req", "dealer1", "Requests")
	_ = w3.AddEdge("dealer1", "agg", "Bids1")
	w3.In = []string{"req"}
	if err := w3.Validate(); err == nil {
		t.Error("uncovered input accepted")
	}

	// Duplicate incoming relation (disjointness of Definition 2.2).
	w4 := buildTestWorkflow(t)
	_ = w4.AddEdge("dealer1", "agg", "Bids1")
	if err := w4.Validate(); err == nil {
		t.Error("duplicate incoming relation accepted")
	}

	// Cycle.
	pass := &Module{
		Name: "M_pass",
		In:   nested.RelationSchemas{"Requests": requestsSchema()},
		Out:  nested.RelationSchemas{"Requests": requestsSchema()},
	}
	w5 := New()
	_ = w5.AddNode("a", pass)
	_ = w5.AddNode("b", pass)
	_ = w5.AddEdge("a", "b", "Requests")
	_ = w5.AddEdge("b", "a", "Requests")
	if err := w5.Validate(); err == nil {
		t.Error("cycle accepted")
	}

	// Disconnected graph.
	w6 := New()
	_ = w6.AddNode("a", requestModule())
	_ = w6.AddNode("b", requestModule())
	w6.In = []string{"a", "b"}
	if err := w6.Validate(); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestExecutePlain(t *testing.T) {
	w := buildTestWorkflow(t)
	r, err := NewRunner(w, Plain)
	if err != nil {
		t.Fatal(err)
	}
	seedDealers(t, r)
	exec, err := r.Execute(Inputs{"req": {"Requests": requestBag("P1", "B1", "Civic")}})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := exec.Output("agg", "Best")
	if !ok || best.Len() != 1 {
		t.Fatalf("Best = %v", best)
	}
	// Dealer1 has 2 Civics -> 28000; dealer2 has 1 -> 29000; min = 28000.
	want := nested.NewTuple(nested.Str("Civic"), nested.Float(28000))
	if _, ok := best.Lookup(want); !ok {
		t.Errorf("Best = %s, want {<Civic,28000>}", best)
	}
	if r.Graph() != nil {
		t.Error("plain mode should not build a graph")
	}
}

func TestExecuteFineMatchesPlain(t *testing.T) {
	for _, gran := range []Granularity{Plain, Coarse, Fine} {
		w := buildTestWorkflow(t)
		r, err := NewRunner(w, gran)
		if err != nil {
			t.Fatal(err)
		}
		seedDealers(t, r)
		exec, err := r.Execute(Inputs{"req": {"Requests": requestBag("P1", "B1", "Civic")}})
		if err != nil {
			t.Fatalf("%v: %v", gran, err)
		}
		best, _ := exec.Output("agg", "Best")
		if _, ok := best.Lookup(nested.NewTuple(nested.Str("Civic"), nested.Float(28000))); !ok {
			t.Errorf("%v: Best = %s", gran, best)
		}
		if gran != Plain {
			if !r.Graph().IsAcyclic() {
				t.Errorf("%v: graph has a cycle", gran)
			}
		}
	}
}

func TestFineGrainedDependencies(t *testing.T) {
	w := buildTestWorkflow(t)
	r, err := NewRunner(w, Fine)
	if err != nil {
		t.Fatal(err)
	}
	seedDealers(t, r)
	exec, err := r.Execute(Inputs{"req": {"Requests": requestBag("P1", "B1", "Civic")}})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := exec.Output("agg", "Best")
	bestNode := best.Tuples[0].Prov
	g := r.Graph()

	// The best bid depends on the request...
	if len(exec.InputNodes) != 1 {
		t.Fatalf("input nodes = %v", exec.InputNodes)
	}
	if !g.DependsOn(bestNode, exec.InputNodes[0]) {
		t.Error("best bid should depend on the request")
	}
	// ...but not on the existence of any single car (Example 4.5's
	// pattern: δ/aggregation tolerate losing one member).
	cars, _ := r.State("M_dealer1", "Cars")
	for _, c := range cars.Tuples {
		if g.DependsOn(bestNode, c.Prov) {
			t.Errorf("best bid should not existentially depend on car %v", c.Tuple)
		}
	}
	// The Accord never joined: its descendants stop at the state node.
	accord, _ := cars.Lookup(nested.NewTuple(nested.Str("C1"), nested.Str("Accord")))
	desc := g.Descendants(accord.Prov)
	for _, d := range desc {
		if g.Node(d).Type == provgraph.TypeModuleOutput {
			t.Error("the Accord should not reach any module output")
		}
	}
}

func TestCoarseGrainedDependsOnAllInputs(t *testing.T) {
	w := buildTestWorkflow(t)
	r, err := NewRunner(w, Coarse)
	if err != nil {
		t.Fatal(err)
	}
	seedDealers(t, r)
	exec, err := r.Execute(Inputs{"req": {"Requests": requestBag("P1", "B1", "Civic")}})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := exec.Output("agg", "Best")
	g := r.Graph()
	// Coarse graph: no state, op, or value nodes.
	g.Nodes(func(n provgraph.Node) bool {
		switch n.Type {
		case provgraph.TypeState, provgraph.TypeOp, provgraph.TypeValue, provgraph.TypeBaseTuple:
			t.Errorf("coarse graph contains %s node", n.Type)
		}
		return true
	})
	// Every output depends on every input (the 100%% contrast of §5.5).
	for _, in := range exec.InputNodes {
		if !g.DependsOn(best.Tuples[0].Prov, in) {
			t.Error("coarse output should depend on every workflow input")
		}
	}
}

func TestStatePersistsAcrossExecutions(t *testing.T) {
	w := buildTestWorkflow(t)
	r, err := NewRunner(w, Fine)
	if err != nil {
		t.Fatal(err)
	}
	seedDealers(t, r)

	if _, err = r.Execute(Inputs{"req": {"Requests": requestBag("P1", "B1", "Civic")}}); err != nil {
		t.Fatal(err)
	}
	bids1, _ := r.State("M_dealer1", "InventoryBids")
	if bids1.Len() != 1 {
		t.Fatalf("after exec 1, InventoryBids = %v", bids1)
	}
	firstBase := bids1.Tuples[0].Prov

	if _, err = r.Execute(Inputs{"req": {"Requests": requestBag("P2", "B2", "Civic")}}); err != nil {
		t.Fatal(err)
	}
	bids2, _ := r.State("M_dealer1", "InventoryBids")
	if bids2.Len() != 2 {
		t.Fatalf("after exec 2, InventoryBids = %v", bids2)
	}
	// The first bid keeps its base node across executions.
	kept, ok := bids2.Lookup(bids1.Tuples[0].Tuple)
	if !ok || kept.Prov != firstBase {
		t.Error("existing state tuple should keep its base provenance node")
	}
	// Cars were never reassigned: bases intact.
	cars, _ := r.State("M_dealer1", "Cars")
	if cars.Len() != 3 {
		t.Errorf("cars state = %v", cars)
	}
	if r.Executions() != 2 {
		t.Errorf("executions = %d", r.Executions())
	}
}

func TestExecuteSequenceGraphGrowsLinearly(t *testing.T) {
	w := buildTestWorkflow(t)
	r, err := NewRunner(w, Fine)
	if err != nil {
		t.Fatal(err)
	}
	seedDealers(t, r)
	var sizes []int
	for i := 0; i < 4; i++ {
		if _, err := r.Execute(Inputs{"req": {"Requests": requestBag("P1", fmt.Sprintf("B%d", i), "Civic")}}); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, r.Graph().NumNodes())
	}
	d1 := sizes[1] - sizes[0]
	d3 := sizes[3] - sizes[2]
	// InventoryBids grows by one tuple per execution, which adds a bounded
	// number of extra nodes (one more state wrapper + union merge) — growth
	// must stay near-linear, far from doubling.
	if d3 > d1*2 {
		t.Errorf("per-execution node growth accelerates: deltas %v", []int{sizes[1] - sizes[0], sizes[2] - sizes[1], sizes[3] - sizes[2]})
	}
}

func TestZoomOutDealerOnWorkflowGraph(t *testing.T) {
	w := buildTestWorkflow(t)
	r, err := NewRunner(w, Fine)
	if err != nil {
		t.Fatal(err)
	}
	seedDealers(t, r)
	if _, err := r.Execute(Inputs{"req": {"Requests": requestBag("P1", "B1", "Civic")}}); err != nil {
		t.Fatal(err)
	}
	g := r.Graph()
	ov := provgraph.NewOverlay(g)
	rec := ov.ZoomOut("M_dealer1", "M_dealer2", "M_agg")
	ov.Nodes(func(n provgraph.Node) bool {
		switch n.Type {
		case provgraph.TypeOp, provgraph.TypeState:
			t.Errorf("zoomed graph contains %s node", n.Type)
		}
		return true
	})
	ov.ZoomIn(rec)
	if !provgraph.ViewsStructurallyEqual(ov, g) {
		t.Error("zoom round-trip failed on workflow graph")
	}
}

func TestMissingInputRelation(t *testing.T) {
	w := buildTestWorkflow(t)
	r, err := NewRunner(w, Plain)
	if err != nil {
		t.Fatal(err)
	}
	seedDealers(t, r)
	// Empty inputs: the request bag is absent, which is fine (empty bid
	// request, Section 1's "workflow execution for an empty bid request").
	exec, err := r.Execute(Inputs{})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := exec.Output("agg", "Best")
	if best.Len() != 0 {
		t.Errorf("empty request should produce no bids, got %v", best)
	}
}

func TestSetStateErrors(t *testing.T) {
	w := buildTestWorkflow(t)
	r, err := NewRunner(w, Plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetState("nope", "Cars", carsBag(), "x"); err == nil {
		t.Error("unknown module accepted")
	}
	if err := r.SetState("M_dealer1", "nope", carsBag(), "x"); err == nil {
		t.Error("unknown state relation accepted")
	}
	bad := nested.NewBag(nested.NewTuple(nested.Int(1)))
	if err := r.SetState("M_dealer1", "Cars", bad, "x"); err == nil {
		t.Error("schema-violating state accepted")
	}
}

func TestModuleCompileErrors(t *testing.T) {
	m := &Module{Name: "bad",
		In:      nested.RelationSchemas{"R": requestsSchema()},
		Out:     nested.RelationSchemas{"Missing": bidsSchema()},
		Program: "X = DISTINCT R;",
	}
	if err := m.Compile(); err == nil {
		t.Error("missing output relation accepted")
	}
	overlap := &Module{Name: "overlap",
		In:    nested.RelationSchemas{"R": requestsSchema()},
		State: nested.RelationSchemas{"R": requestsSchema()},
	}
	if err := overlap.Compile(); err == nil {
		t.Error("overlapping in/state schemas accepted")
	}
	anon := &Module{}
	if err := anon.Compile(); err == nil {
		t.Error("unnamed module accepted")
	}
	badPass := &Module{Name: "pass",
		In:  nested.RelationSchemas{"R": requestsSchema()},
		Out: nested.RelationSchemas{"S": bidsSchema()},
	}
	if err := badPass.Compile(); err == nil {
		t.Error("pass-through with unknown output accepted")
	}
}

// sharedModuleWorkflow labels two independent nodes with the same module:
// req -> {n1, n2} (both M_dealer1) -> {sink1, sink2}. The nodes share
// module state even though they are data-independent.
func sharedModuleWorkflow(t *testing.T) *Workflow {
	t.Helper()
	w := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dealer := dealerModule(1)
	sink := func(name string) *Module {
		return &Module{
			Name:    "M_" + name,
			In:      nested.RelationSchemas{"Bids1": bidsSchema()},
			Out:     nested.RelationSchemas{"Bids1": bidsSchema()},
			Program: "",
		}
	}
	must(w.AddNode("req", requestModule()))
	must(w.AddNode("n1", dealer))
	must(w.AddNode("n2", dealer))
	must(w.AddNode("sink1", sink("sink1")))
	must(w.AddNode("sink2", sink("sink2")))
	must(w.AddEdge("req", "n1", "Requests"))
	must(w.AddEdge("req", "n2", "Requests"))
	must(w.AddEdge("n1", "sink1", "Bids1"))
	must(w.AddEdge("n2", "sink2", "Bids1"))
	w.In = []string{"req"}
	w.Out = []string{"sink1", "sink2"}
	return w
}

// TestSharedModuleThreadsState checks that two workflow nodes labeled with
// the same module share its state within one execution: n2 runs on the
// InventoryBids n1 just recorded, so every bid is recorded twice and keeps
// the base node n1 derived for it.
func TestSharedModuleThreadsState(t *testing.T) {
	r, err := NewRunner(sharedModuleWorkflow(t), Fine)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetState("M_dealer1", "Cars", carsBag([2]string{"C1", "Civic"}), "car"); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if _, err := r.Execute(Inputs{"req": {"Requests": requestBag("u1", fmt.Sprintf("B%d", e), "Civic")}}); err != nil {
			t.Fatal(err)
		}
	}
	n2Begins := map[int]provgraph.NodeID{}
	r.Graph().Invocations(func(inv *provgraph.Invocation) bool {
		if inv.NodeName == "n2" {
			n2Begins[inv.Execution] = inv.MNode
		}
		return true
	})
	bids, _ := r.State("M_dealer1", "InventoryBids")
	if bids.Len() != 2 {
		t.Fatalf("InventoryBids = %s, want one bid per execution", bids)
	}
	for e := 0; e < 2; e++ {
		// One Civic in stock: CalcBid prices every bid at 30000 - 1000.
		want := nested.NewTuple(nested.Str(fmt.Sprintf("B%d", e)), nested.Str("Civic"), nested.Float(29000))
		bid, ok := bids.Lookup(want)
		if !ok || bid.Mult != 2 {
			t.Fatalf("InventoryBids = %s, want %v recorded by n1 and again by n2", bids, want)
		}
		if bid.Prov >= n2Begins[e] {
			t.Errorf("bid B%d: base node %d is not n1's (n2 began at node %d)", e, bid.Prov, n2Begins[e])
		}
	}
}

// TestExecuteErrorPropagates checks that a failing UDF's error comes out
// of Execute naming the node and module it failed in.
func TestExecuteErrorPropagates(t *testing.T) {
	w := New()
	boom := &pig.UDF{
		Name:      "Boom",
		OutSchema: requestsSchema(),
		Fn: func([]nested.Value) (*nested.Bag, error) {
			return nil, fmt.Errorf("synthetic failure")
		},
	}
	reg := pig.NewRegistry()
	reg.MustRegister(boom)
	fail := &Module{
		Name:     "M_fail",
		In:       nested.RelationSchemas{"Requests": requestsSchema()},
		Out:      nested.RelationSchemas{"Out": requestsSchema()},
		Program:  "G = GROUP Requests BY 1;\nOut = FOREACH G GENERATE FLATTEN(Boom(Requests));",
		Registry: reg,
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AddNode("req", requestModule()))
	must(w.AddNode("bad", fail))
	must(w.AddEdge("req", "bad", "Requests"))
	w.In = []string{"req"}
	w.Out = []string{"bad"}
	r, err := NewRunner(w, Fine)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Execute(Inputs{"req": {"Requests": requestBag("u1", "B0", "Civic")}})
	if err == nil {
		t.Fatal("Execute succeeded despite a failing UDF")
	}
	for _, want := range []string{"synthetic failure", "bad", "M_fail"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
