package eval

import (
	"fmt"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
)

func str() nested.Type { return nested.ScalarType(nested.KindString) }

// dealerEnvSchemas reproduces the module schemas of Example 2.1.
func dealerEnvSchemas() nested.RelationSchemas {
	return nested.RelationSchemas{
		"Requests": nested.NewSchema(
			nested.Field{Name: "UserId", Type: str()},
			nested.Field{Name: "BidId", Type: str()},
			nested.Field{Name: "Model", Type: str()},
		),
		"Cars": nested.NewSchema(
			nested.Field{Name: "CarId", Type: str()},
			nested.Field{Name: "Model", Type: str()},
		),
		"SoldCars": nested.NewSchema(
			nested.Field{Name: "CarId", Type: str()},
			nested.Field{Name: "BidId", Type: str()},
		),
	}
}

const dealerProgram = `
ReqModel = FOREACH Requests GENERATE Model;
Inventory = JOIN Cars BY Model, ReqModel BY Model;
SoldInventory = JOIN Inventory BY CarId, SoldCars BY CarId;
CarsByModel = GROUP Inventory BY Cars::Model;
SoldByModel = GROUP SoldInventory BY Cars::Model;
NumCarsByModel = FOREACH CarsByModel GENERATE group AS Model, COUNT(Inventory) AS NumAvail;
NumSoldByModel = FOREACH SoldByModel GENERATE group AS Model, COUNT(SoldInventory) AS NumSold;
AllInfoByModel = COGROUP Requests BY Model, NumCarsByModel BY Model, NumSoldByModel BY Model;
InventoryBids = FOREACH AllInfoByModel GENERATE FLATTEN(CalcBid(Requests, NumCarsByModel, NumSoldByModel));
`

// calcBid computes a bid from (Requests, NumCarsByModel, NumSoldByModel)
// bags, mimicking the paper's black box: base price minus availability
// discount.
func calcBid() *pig.UDF {
	return &pig.UDF{
		Name: "CalcBid",
		OutSchema: nested.NewSchema(
			nested.Field{Name: "BidId", Type: str()},
			nested.Field{Name: "UserId", Type: str()},
			nested.Field{Name: "Model", Type: str()},
			nested.Field{Name: "Amount", Type: nested.ScalarType(nested.KindFloat)},
		),
		Fn: func(args []nested.Value) (*nested.Bag, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("CalcBid wants 3 args")
			}
			reqs := args[0].AsBag()
			out := nested.NewBag()
			for _, req := range reqs.Tuples {
				avail := int64(0)
				if args[1].Kind() == nested.KindBag && len(args[1].AsBag().Tuples) > 0 {
					avail = args[1].AsBag().Tuples[0].Fields[1].AsInt()
				}
				amount := 25000.0 - 2500.0*float64(avail)
				out.Add(nested.NewTuple(req.Fields[1], req.Fields[0], req.Fields[2], nested.Float(amount)))
			}
			return out, nil
		},
	}
}

// buildDealerInputs loads the instance of Example 2.3.
func buildDealerInputs(env *Env, schemas nested.RelationSchemas) {
	cars := NewRelation(schemas["Cars"])
	for i, row := range [][2]string{{"C1", "Accord"}, {"C2", "Civic"}, {"C3", "Civic"}} {
		cars.Add(nil, AnnTuple{
			Tuple: nested.NewTuple(nested.Str(row[0]), nested.Str(row[1])),
			Prov:  provgraph.InvalidNode, Mult: 1,
		})
		_ = i
	}
	reqs := NewRelation(schemas["Requests"])
	reqs.Add(nil, AnnTuple{
		Tuple: nested.NewTuple(nested.Str("P1"), nested.Str("B1"), nested.Str("Civic")),
		Prov:  provgraph.InvalidNode, Mult: 1,
	})
	env.Set("Cars", cars)
	env.Set("Requests", reqs)
	env.Set("SoldCars", NewRelation(schemas["SoldCars"]))
}

// trackDealerInputs is buildDealerInputs with provenance tokens.
func trackDealerInputs(env *Env, schemas nested.RelationSchemas, b *provgraph.Builder) map[string]provgraph.NodeID {
	nodes := map[string]provgraph.NodeID{}
	cars := NewRelation(schemas["Cars"])
	for _, row := range [][2]string{{"C1", "Accord"}, {"C2", "Civic"}, {"C3", "Civic"}} {
		n := b.BaseTuple(row[0])
		nodes[row[0]] = n
		cars.Add(b, AnnTuple{
			Tuple: nested.NewTuple(nested.Str(row[0]), nested.Str(row[1])),
			Prov:  n, Mult: 1,
		})
	}
	reqs := NewRelation(schemas["Requests"])
	rq := b.WorkflowInput("I1")
	nodes["I1"] = rq
	reqs.Add(b, AnnTuple{
		Tuple: nested.NewTuple(nested.Str("P1"), nested.Str("B1"), nested.Str("Civic")),
		Prov:  rq, Mult: 1,
	})
	env.Set("Cars", cars)
	env.Set("Requests", reqs)
	env.Set("SoldCars", NewRelation(schemas["SoldCars"]))
	return nodes
}

func compileDealer(t *testing.T) *pig.Plan {
	t.Helper()
	reg := pig.NewRegistry()
	reg.MustRegister(calcBid())
	plan, err := pig.CompileSource(dealerProgram, dealerEnvSchemas(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDealerExample23 replays Example 2.3 and checks every intermediate
// table the paper prints.
func TestDealerExample23(t *testing.T) {
	plan := compileDealer(t)
	env := NewEnv()
	buildDealerInputs(env, plan.Schemas)
	if err := New(nil).Run(plan, env); err != nil {
		t.Fatal(err)
	}

	check := func(name, want string) {
		t.Helper()
		r, err := env.Rel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := r.String(); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
	check("ReqModel", "{<Civic>}")
	check("Inventory", "{<C2,Civic,Civic>,<C3,Civic,Civic>}")
	check("SoldInventory", "{}")
	check("NumCarsByModel", "{<Civic,2>}")
	check("NumSoldByModel", "{}")
	// CarsByModel: one group with the two Civics.
	cbm, _ := env.Rel("CarsByModel")
	if cbm.Len() != 1 {
		t.Fatalf("CarsByModel = %v", cbm)
	}
	grp := cbm.Tuples[0].Tuple
	if grp.Fields[0].AsString() != "Civic" || grp.Fields[1].AsBag().Len() != 2 {
		t.Errorf("CarsByModel group = %v", grp)
	}
	// AllInfoByModel: Civic with requests bag, numcars bag, empty numsold.
	aib, _ := env.Rel("AllInfoByModel")
	if aib.Len() != 1 {
		t.Fatalf("AllInfoByModel = %v", aib)
	}
	at := aib.Tuples[0].Tuple
	if at.Fields[1].AsBag().Len() != 1 || at.Fields[2].AsBag().Len() != 1 || at.Fields[3].AsBag().Len() != 0 {
		t.Errorf("AllInfoByModel nested bags wrong: %v", at)
	}
	// InventoryBids: one bid; amount 25000 - 2500*2 = 20000 ("$20K").
	check("InventoryBids", "{<B1,P1,Civic,20000>}")
}

// TestDealerTrackedMatchesPlain: tracked evaluation computes the same bags
// as plain evaluation.
func TestDealerTrackedMatchesPlain(t *testing.T) {
	plan := compileDealer(t)

	plainEnv := NewEnv()
	buildDealerInputs(plainEnv, plan.Schemas)
	if err := New(nil).Run(plan, plainEnv); err != nil {
		t.Fatal(err)
	}

	b := provgraph.NewBuilder()
	trackedEnv := NewEnv()
	trackDealerInputs(trackedEnv, plan.Schemas, b)
	if err := New(b).Run(plan, trackedEnv); err != nil {
		t.Fatal(err)
	}

	for name := range plainEnv.Rels {
		pr := plainEnv.Rels[name]
		tr := trackedEnv.Rels[name]
		if tr == nil {
			t.Errorf("%s missing in tracked env", name)
			continue
		}
		if !pr.Equal(tr) {
			t.Errorf("%s differs: plain %s vs tracked %s", name, pr, tr)
		}
	}
	if !b.G.IsAcyclic() {
		t.Error("tracked graph must be acyclic")
	}
}

// TestDealerDeletionWhatIf: on the tracked graph, the bid survives deleting
// car C2 (Example 4.5) but dies with the request.
func TestDealerDeletionWhatIf(t *testing.T) {
	plan := compileDealer(t)
	b := provgraph.NewBuilder()
	env := NewEnv()
	nodes := trackDealerInputs(env, plan.Schemas, b)
	if err := New(b).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	bids, _ := env.Rel("InventoryBids")
	if bids.Len() != 1 {
		t.Fatalf("bids = %v", bids)
	}
	bidNode := bids.Tuples[0].Prov

	if b.G.DependsOn(bidNode, nodes["C2"]) {
		t.Error("bid should survive deletion of C2")
	}
	if !b.G.DependsOn(bidNode, nodes["I1"]) {
		t.Error("bid should depend on the request")
	}
	// COUNT recomputation after deleting C2 (Example 4.3).
	ov := provgraph.NewOverlay(b.G)
	ov.Delete(nodes["C2"])
	recs := ov.RecomputeAggregates()
	found := false
	for _, rec := range recs {
		if rec.Op == "COUNT" && rec.Before.Equal(nested.Int(2)) && rec.After.Equal(nested.Int(1)) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected COUNT 2->1 recomputation, got %v", recs)
	}
}

// TestProjectionMergesDuplicates: projecting two Civics onto Model yields
// one tuple with multiplicity 2 and a single + node over both cars.
func TestProjectionMergesDuplicates(t *testing.T) {
	schemas := dealerEnvSchemas()
	plan, err := pig.CompileSource("Models = FOREACH Cars GENERATE Model;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := provgraph.NewBuilder()
	env := NewEnv()
	trackDealerInputs(env, schemas, b)
	if err := New(b).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	models, _ := env.Rel("Models")
	if models.Len() != 2 || models.Card() != 3 {
		t.Fatalf("Models = %v (len %d card %d)", models, models.Len(), models.Card())
	}
	civic, ok := models.Lookup(nested.NewTuple(nested.Str("Civic")))
	if !ok || civic.Mult != 2 {
		t.Fatalf("civic mult = %d", civic.Mult)
	}
	n := b.G.Node(civic.Prov)
	if n.Op != provgraph.OpPlus {
		t.Errorf("civic prov should be a + node, got %s", n.Op)
	}
	if len(b.G.In(civic.Prov)) != 2 {
		t.Errorf("civic + node should have 2 sources, has %d", len(b.G.In(civic.Prov)))
	}
}

func intRel(schema *nested.Schema, b *provgraph.Builder, vals ...int64) *Relation {
	r := NewRelation(schema)
	for i, v := range vals {
		prov := provgraph.InvalidNode
		if b != nil {
			prov = b.BaseTuple(fmt.Sprintf("t%d", i))
		}
		r.Add(b, AnnTuple{Tuple: nested.NewTuple(nested.Int(v)), Prov: prov, Mult: 1})
	}
	return r
}

func intSchema() *nested.Schema {
	return nested.NewSchema(nested.Field{Name: "x", Type: nested.ScalarType(nested.KindInt)})
}

func TestAggregatesOverGroups(t *testing.T) {
	schemas := nested.RelationSchemas{"V": intSchema()}
	src := `G = GROUP V BY (x % 2);
S = FOREACH G GENERATE group AS parity, COUNT(V) AS n, SUM(V) AS s, MIN(V) AS lo, MAX(V) AS hi, AVG(V) AS mean;`
	plan, err := pig.CompileSource(src, schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Set("V", intRel(schemas["V"], nil, 1, 2, 3, 4, 5))
	if err := New(nil).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	s, _ := env.Rel("S")
	if s.Len() != 2 {
		t.Fatalf("S = %v", s)
	}
	odd, ok := s.Lookup(nested.NewTuple(nested.Int(1), nested.Int(3), nested.Int(9), nested.Int(1), nested.Int(5), nested.Float(3)))
	if !ok || odd.Mult != 1 {
		t.Errorf("odd group aggregate wrong: %v", s)
	}
	even, ok := s.Lookup(nested.NewTuple(nested.Int(0), nested.Int(2), nested.Int(6), nested.Int(2), nested.Int(4), nested.Float(3)))
	if !ok || even.Mult != 1 {
		t.Errorf("even group aggregate wrong: %v", s)
	}
}

func TestAggregateRespectsMultiplicity(t *testing.T) {
	// Two physical copies of <2> must make COUNT=3, SUM=4 for the group
	// containing them (values 2,2) plus <0> in even group... use one group.
	schemas := nested.RelationSchemas{"V": intSchema()}
	plan, err := pig.CompileSource("G = GROUP V BY 1; S = FOREACH G GENERATE COUNT(V) AS n, SUM(V) AS s;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	r := NewRelation(schemas["V"])
	r.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(2)), Prov: provgraph.InvalidNode, Mult: 2})
	r.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(5)), Prov: provgraph.InvalidNode, Mult: 1})
	env.Set("V", r)
	if err := New(nil).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	s, _ := env.Rel("S")
	if _, ok := s.Lookup(nested.NewTuple(nested.Int(3), nested.Int(9))); !ok {
		t.Errorf("aggregates ignore multiplicity: %v", s)
	}
}

func TestEmptyGroupAggregates(t *testing.T) {
	schemas := nested.RelationSchemas{"V": intSchema()}
	plan, err := pig.CompileSource("G = GROUP V BY x; S = FOREACH G GENERATE COUNT(V) AS n, MIN(V) AS lo;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Set("V", intRel(schemas["V"], nil))
	if err := New(nil).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	s, _ := env.Rel("S")
	if s.Len() != 0 {
		t.Errorf("group of empty relation should be empty, got %v", s)
	}
}

func TestUnionMergesAnnotations(t *testing.T) {
	schemas := nested.RelationSchemas{"A": intSchema(), "B": intSchema()}
	plan, err := pig.CompileSource("U = UNION A, B;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := provgraph.NewBuilder()
	env := NewEnv()
	env.Set("A", intRel(schemas["A"], b, 1, 2))
	env.Set("B", intRel(schemas["B"], b, 2, 3))
	if err := New(b).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	u, _ := env.Rel("U")
	if u.Len() != 3 || u.Card() != 4 {
		t.Fatalf("U = %v", u)
	}
	two, _ := u.Lookup(nested.NewTuple(nested.Int(2)))
	if two.Mult != 2 {
		t.Errorf("union mult = %d, want 2", two.Mult)
	}
	if b.G.Node(two.Prov).Op != provgraph.OpPlus {
		t.Error("shared tuple should be +-annotated")
	}
}

func TestDistinctDeltaNodes(t *testing.T) {
	schemas := nested.RelationSchemas{"A": intSchema()}
	plan, err := pig.CompileSource("D = DISTINCT A;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := provgraph.NewBuilder()
	env := NewEnv()
	r := NewRelation(schemas["A"])
	n0 := b.BaseTuple("t0")
	r.Add(b, AnnTuple{Tuple: nested.NewTuple(nested.Int(7)), Prov: n0, Mult: 3})
	env.Set("A", r)
	if err := New(b).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	d, _ := env.Rel("D")
	if d.Len() != 1 || d.Card() != 1 {
		t.Fatalf("D = %v (card %d)", d, d.Card())
	}
	if b.G.Node(d.Tuples[0].Prov).Op != provgraph.OpDelta {
		t.Error("DISTINCT should δ-annotate")
	}
}

func TestOrderAndLimit(t *testing.T) {
	schemas := nested.RelationSchemas{"A": intSchema()}
	plan, err := pig.CompileSource("O = ORDER A BY x DESC; L = LIMIT O 2;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Set("A", intRel(schemas["A"], nil, 3, 1, 4, 1, 5))
	if err := New(nil).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	o, _ := env.Rel("O")
	if o.Tuples[0].Tuple.Fields[0].AsInt() != 5 || o.Tuples[len(o.Tuples)-1].Tuple.Fields[0].AsInt() != 1 {
		t.Errorf("order wrong: %v", o.Tuples)
	}
	l, _ := env.Rel("L")
	if l.Card() != 2 {
		t.Errorf("limit card = %d", l.Card())
	}
	if _, ok := l.Lookup(nested.NewTuple(nested.Int(5))); !ok {
		t.Error("limit should keep the top tuples")
	}
}

func TestLimitSplitsMultiplicity(t *testing.T) {
	schemas := nested.RelationSchemas{"A": intSchema()}
	plan, err := pig.CompileSource("L = LIMIT A 2;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	r := NewRelation(schemas["A"])
	r.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(9)), Prov: provgraph.InvalidNode, Mult: 5})
	env.Set("A", r)
	if err := New(nil).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	l, _ := env.Rel("L")
	if l.Card() != 2 {
		t.Errorf("limit card = %d, want 2", l.Card())
	}
}

func TestFilterKeepsAnnotation(t *testing.T) {
	schemas := nested.RelationSchemas{"A": intSchema()}
	plan, err := pig.CompileSource("F = FILTER A BY x > 2;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := provgraph.NewBuilder()
	env := NewEnv()
	env.Set("A", intRel(schemas["A"], b, 1, 5))
	before := b.G.NumNodes()
	if err := New(b).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	f, _ := env.Rel("F")
	if f.Len() != 1 {
		t.Fatalf("F = %v", f)
	}
	if b.G.NumNodes() != before {
		t.Error("FILTER must not create provenance nodes")
	}
	orig, _ := env.Rels["A"].Lookup(nested.NewTuple(nested.Int(5)))
	if f.Tuples[0].Prov != orig.Prov {
		t.Error("FILTER must keep the original annotation node")
	}
}

func TestJoinMultiplicities(t *testing.T) {
	schemas := nested.RelationSchemas{"A": intSchema(), "B": intSchema()}
	plan, err := pig.CompileSource("J = JOIN A BY x, B BY x;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	a := NewRelation(schemas["A"])
	a.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(1)), Prov: provgraph.InvalidNode, Mult: 2})
	bRel := NewRelation(schemas["B"])
	bRel.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(1)), Prov: provgraph.InvalidNode, Mult: 3})
	env.Set("A", a)
	env.Set("B", bRel)
	if err := New(nil).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	j, _ := env.Rel("J")
	if j.Card() != 6 {
		t.Errorf("join card = %d, want 6", j.Card())
	}
}

func TestFlattenBagCrossesOuter(t *testing.T) {
	schemas := nested.RelationSchemas{"V": intSchema()}
	src := `G = GROUP V BY (x % 2); F = FOREACH G GENERATE group, FLATTEN(V);`
	plan, err := pig.CompileSource(src, schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := provgraph.NewBuilder()
	env := NewEnv()
	env.Set("V", intRel(schemas["V"], b, 1, 2, 3))
	if err := New(b).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	f, _ := env.Rel("F")
	if f.Card() != 3 {
		t.Fatalf("F = %v", f)
	}
	odd1, ok := f.Lookup(nested.NewTuple(nested.Int(1), nested.Int(1)))
	if !ok {
		t.Fatalf("missing flattened tuple: %v", f)
	}
	// Provenance: · of the group tuple and the member.
	if b.G.Node(odd1.Prov).Op != provgraph.OpTimes {
		t.Errorf("flatten prov should be ·, got %s", b.G.Node(odd1.Prov).Op)
	}
	if len(b.G.In(odd1.Prov)) != 2 {
		t.Errorf("flatten · should have 2 sources")
	}
}

func TestErrorOnUnboundRelation(t *testing.T) {
	schemas := nested.RelationSchemas{"A": intSchema()}
	plan, err := pig.CompileSource("F = FILTER A BY x > 2;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	if err := New(nil).Run(plan, env); err == nil {
		t.Error("running against empty env should fail")
	}
}

func TestUDFErrorPropagates(t *testing.T) {
	reg := pig.NewRegistry()
	reg.MustRegister(&pig.UDF{
		Name:      "Boom",
		OutSchema: intSchema(),
		Fn: func([]nested.Value) (*nested.Bag, error) {
			return nil, fmt.Errorf("kaboom")
		},
	})
	schemas := nested.RelationSchemas{"A": intSchema()}
	plan, err := pig.CompileSource("B = FOREACH A GENERATE FLATTEN(Boom(x));", schemas, reg)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Set("A", intRel(schemas["A"], nil, 1))
	if err := New(nil).Run(plan, env); err == nil {
		t.Error("UDF error should propagate")
	}
}

func TestUDFOutputValidated(t *testing.T) {
	reg := pig.NewRegistry()
	reg.MustRegister(&pig.UDF{
		Name:      "BadSchema",
		OutSchema: intSchema(),
		Fn: func([]nested.Value) (*nested.Bag, error) {
			return nested.NewBag(nested.NewTuple(nested.Str("oops"), nested.Str("x"))), nil
		},
	})
	schemas := nested.RelationSchemas{"A": intSchema()}
	plan, err := pig.CompileSource("B = FOREACH A GENERATE FLATTEN(BadSchema(x));", schemas, reg)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Set("A", intRel(schemas["A"], nil, 1))
	if err := New(nil).Run(plan, env); err == nil {
		t.Error("UDF schema violation should fail")
	}
}
