// Package workflowgen implements the WorkflowGen benchmark of Section 5.2:
// the Car-dealerships workflow (the paper's running example — four dealer
// modules with Cars/SoldCars/InventoryBids state, a CalcBid black box, a
// minimum-bid aggregator, user choice, and xor routing of the purchase)
// and the Arctic-stations workflow family (2–24 station modules over
// serial, parallel, and dense topologies computing minimum air temperature
// at all/season/month/year selectivity), plus the drivers and measurement
// harness that regenerate every figure of Section 5.
package workflowgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
)

// CarModels are the twelve German car models the benchmark assigns
// randomly to the dealerships' inventories (Section 5.2).
var CarModels = []string{
	"Golf", "Jetta", "Passat", "Tiguan", "Polo", "A3",
	"A4", "Q5", "C200", "E300", "320i", "911",
}

// basePrice is the model's list price used by CalcBid.
func basePrice(model string) float64 {
	for i, m := range CarModels {
		if m == model {
			return 18000 + 2200*float64(i)
		}
	}
	return 25000
}

func strT() nested.Type { return nested.ScalarType(nested.KindString) }
func fltT() nested.Type { return nested.ScalarType(nested.KindFloat) }
func intT() nested.Type { return nested.ScalarType(nested.KindInt) }

func requestsSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "UserId", Type: strT()},
		nested.Field{Name: "BidId", Type: strT()},
		nested.Field{Name: "Model", Type: strT()},
	)
}

func bidsSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "Dealer", Type: strT()},
		nested.Field{Name: "BidId", Type: strT()},
		nested.Field{Name: "Model", Type: strT()},
		nested.Field{Name: "Price", Type: fltT()},
	)
}

func choiceSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "Reserve", Type: fltT()},
		nested.Field{Name: "Prob", Type: fltT()},
		nested.Field{Name: "Roll", Type: fltT()},
	)
}

func carsSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "CarId", Type: strT()},
		nested.Field{Name: "Model", Type: strT()},
	)
}

func soldCarsSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "CarId", Type: strT()},
		nested.Field{Name: "BidId", Type: strT()},
	)
}

func inventoryBidsSchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "BidId", Type: strT()},
		nested.Field{Name: "UserId", Type: strT()},
		nested.Field{Name: "Model", Type: strT()},
		nested.Field{Name: "Amount", Type: fltT()},
	)
}

// calcBidUDF is the paper's CalcBid black box: the bid depends on the
// number of available cars, the number of recent sales, and the buyer's
// previous bids for the model ("the same or lower amount" on repeat
// requests).
func calcBidUDF() *pig.UDF {
	return &pig.UDF{
		Name:      "CalcBid",
		OutSchema: inventoryBidsSchema(),
		Fn: func(args []nested.Value) (*nested.Bag, error) {
			if len(args) != 4 {
				return nil, fmt.Errorf("CalcBid expects (Requests, NumCars, NumSold, PrevBids)")
			}
			out := nested.NewBag()
			reqs := args[0].AsBag()
			numAvail := int64(0)
			if b := args[1].AsBag(); len(b.Tuples) > 0 {
				numAvail = b.Tuples[0].Fields[1].AsInt()
			}
			numSold := int64(0)
			if b := args[2].AsBag(); len(b.Tuples) > 0 {
				numSold = b.Tuples[0].Fields[1].AsInt()
			}
			prev := args[3].AsBag()
			if numAvail == 0 {
				return out, nil // nothing to offer
			}
			for _, req := range reqs.Tuples {
				user := req.Fields[0].AsString()
				bidID := req.Fields[1].AsString()
				model := req.Fields[2].AsString()
				base := basePrice(model)
				amount := base - 400*float64(numAvail) + 300*float64(numSold)
				// Repeat request: consult bid history, bid same or lower.
				for _, pb := range prev.Tuples {
					if pb.Fields[1].AsString() == user && pb.Fields[2].AsString() == model {
						prevAmount := pb.Fields[3].AsFloat()
						if cut := prevAmount * 0.97; cut < amount {
							amount = cut
						}
					}
				}
				if floor := base * 0.6; amount < floor {
					amount = floor
				}
				out.Add(nested.NewTuple(
					nested.Str(bidID), nested.Str(user), nested.Str(model), nested.Float(amount)))
			}
			return out, nil
		},
	}
}

// pickCarUDF selects the car sold for a purchase: the first (by id) car of
// the purchased model that is not already sold.
func pickCarUDF() *pig.UDF {
	return &pig.UDF{
		Name:      "PickCar",
		OutSchema: soldCarsSchema(),
		Fn: func(args []nested.Value) (*nested.Bag, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("PickCar expects (Purchases, Cars, Sold)")
			}
			out := nested.NewBag()
			purchases := args[0].AsBag()
			if len(purchases.Tuples) == 0 {
				return out, nil
			}
			bidID := purchases.Tuples[0].Fields[0].AsString()
			cars := args[1].AsBag()
			sold := map[string]bool{}
			for _, s := range args[2].AsBag().Tuples {
				sold[s.Fields[0].AsString()] = true
			}
			ids := make([]string, 0, len(cars.Tuples))
			for _, c := range cars.Tuples {
				if id := c.Fields[0].AsString(); !sold[id] {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				return out, nil
			}
			sort.Strings(ids)
			out.Add(nested.NewTuple(nested.Str(ids[0]), nested.Str(bidID)))
			return out, nil
		},
	}
}

// dealerProgram is the dealer module's Pig Latin: the paper's Q_state
// (Example 2.1) extended with the purchase phase the paper elides.
const dealerProgramTemplate = `
-- bid phase (Example 2.1's Q_state)
ReqModel = FOREACH Requests GENERATE Model;
Inventory = JOIN Cars BY Model, ReqModel BY Model;
SoldInventory = JOIN Inventory BY CarId, SoldCars BY CarId;
CarsByModel = GROUP Inventory BY Cars::Model;
SoldByModel = GROUP SoldInventory BY Cars::Model;
NumCarsByModel = FOREACH CarsByModel GENERATE group AS Model, COUNT(Inventory) AS NumAvail;
NumSoldByModel = FOREACH SoldByModel GENERATE group AS Model, COUNT(SoldInventory) AS NumSold;
AllInfoByModel = COGROUP Requests BY Model, NumCarsByModel BY Model, NumSoldByModel BY Model, InventoryBids BY Model;
NewBids = FOREACH AllInfoByModel GENERATE FLATTEN(CalcBid(Requests, NumCarsByModel, NumSoldByModel, InventoryBids));
InventoryBids = UNION InventoryBids, NewBids;
Bids%d = FOREACH NewBids GENERATE '%d' AS Dealer, BidId, Model, Amount AS Price;
-- purchase phase
PReq = FOREACH Purchases%d GENERATE BidId, Model;
PCarsJ = JOIN Cars BY Model, PReq BY Model;
PCars = FOREACH PCarsJ GENERATE Cars::CarId AS CarId, Cars::Model AS Model;
SoldJ = JOIN SoldCars BY CarId, Cars BY CarId;
SoldM = FOREACH SoldJ GENERATE SoldCars::CarId AS CarId, Cars::Model AS Model;
PickInfo = COGROUP PReq BY Model, PCars BY Model, SoldM BY Model;
NewSold = FOREACH PickInfo GENERATE FLATTEN(PickCar(PReq, PCars, SoldM));
SoldCars = UNION SoldCars, NewSold;
CarOut%d = NewSold;
`

// dealerModule builds dealership k (1-based). Each dealership is its own
// module identity with its own state, sharing the specification
// (Example 2.1: "These modules have the same specification, but different
// identities").
func dealerModule(k int) *workflow.Module {
	reg := pig.NewRegistry()
	reg.MustRegister(calcBidUDF())
	reg.MustRegister(pickCarUDF())
	return &workflow.Module{
		Name: fmt.Sprintf("M_dealer%d", k),
		In: nested.RelationSchemas{
			"Requests":                    requestsSchema(),
			fmt.Sprintf("Purchases%d", k): bidsSchema(),
		},
		State: nested.RelationSchemas{
			"Cars":          carsSchema(),
			"SoldCars":      soldCarsSchema(),
			"InventoryBids": inventoryBidsSchema(),
		},
		Out: nested.RelationSchemas{
			fmt.Sprintf("Bids%d", k):   bidsSchema(),
			fmt.Sprintf("CarOut%d", k): soldCarsSchema(),
		},
		Program:  fmt.Sprintf(dealerProgramTemplate, k, k, k, k),
		Registry: reg,
	}
}

// aggModule computes the best (minimum) bid across the four dealerships.
func aggModule() *workflow.Module {
	return &workflow.Module{
		Name: "M_agg",
		In: nested.RelationSchemas{
			"Bids1": bidsSchema(), "Bids2": bidsSchema(),
			"Bids3": bidsSchema(), "Bids4": bidsSchema(),
		},
		Out: nested.RelationSchemas{"Best": bidsSchema()},
		Program: `
AllBids = UNION Bids1, Bids2, Bids3, Bids4;
ByModel = GROUP AllBids BY Model;
MinPrice = FOREACH ByModel GENERATE group AS Model, MIN(AllBids.Price) AS Price;
BestJ = JOIN AllBids BY (Model, Price), MinPrice BY (Model, Price);
BestAll = FOREACH BestJ GENERATE AllBids::Dealer AS Dealer, AllBids::BidId AS BidId, AllBids::Model AS Model, AllBids::Price AS Price;
BestSorted = ORDER BestAll BY Dealer;
Best = LIMIT BestSorted 1;
`,
	}
}

// xorModule accepts or declines the best bid against the user's choice and
// routes the purchase to the winning dealership.
func xorModule() *workflow.Module {
	var sb strings.Builder
	sb.WriteString(`
J = JOIN Best BY 1, Choice BY 1;
AcceptedJ = FILTER J BY Best::Price <= Choice::Reserve AND Choice::Roll <= Choice::Prob;
Accepted = FOREACH AcceptedJ GENERATE Best::Dealer AS Dealer, Best::BidId AS BidId, Best::Model AS Model, Best::Price AS Price;
`)
	out := nested.RelationSchemas{}
	for k := 1; k <= 4; k++ {
		fmt.Fprintf(&sb, "Purchases%d = FILTER Accepted BY Dealer == '%d';\n", k, k)
		out[fmt.Sprintf("Purchases%d", k)] = bidsSchema()
	}
	return &workflow.Module{
		Name:    "M_xor",
		In:      nested.RelationSchemas{"Best": bidsSchema(), "Choice": choiceSchema()},
		Out:     out,
		Program: sb.String(),
	}
}

// carModule unions the dealerships' sale records into the workflow output.
func carModule() *workflow.Module {
	return &workflow.Module{
		Name: "M_car",
		In: nested.RelationSchemas{
			"CarOut1": soldCarsSchema(), "CarOut2": soldCarsSchema(),
			"CarOut3": soldCarsSchema(), "CarOut4": soldCarsSchema(),
		},
		Out:     nested.RelationSchemas{"Sold": soldCarsSchema()},
		Program: `Sold = UNION CarOut1, CarOut2, CarOut3, CarOut4;`,
	}
}

// NewDealershipWorkflow assembles the car-dealership workflow of Figure 1:
// request -> and-split -> 4 dealer (bid) -> aggregator -> xor (with the
// user's choice) -> 4 dealer (purchase) -> car output. Dealer modules
// appear twice (bid and purchase phases, two invocations per execution).
func NewDealershipWorkflow() (*workflow.Workflow, error) {
	w := workflow.New()
	w.AllowPartialInputs = true

	reqModule := &workflow.Module{Name: "M_req", Out: nested.RelationSchemas{"Requests": requestsSchema()}}
	choiceModule := &workflow.Module{Name: "M_choice", Out: nested.RelationSchemas{"Choice": choiceSchema()}}
	andModule := &workflow.Module{
		Name: "M_and",
		In:   nested.RelationSchemas{"Requests": requestsSchema()},
		Out:  nested.RelationSchemas{"Requests": requestsSchema()},
	}

	if err := w.AddNode("req", reqModule); err != nil {
		return nil, err
	}
	if err := w.AddNode("and", andModule); err != nil {
		return nil, err
	}
	if err := w.AddNode("choice", choiceModule); err != nil {
		return nil, err
	}
	dealers := make([]*workflow.Module, 4)
	for k := 1; k <= 4; k++ {
		dealers[k-1] = dealerModule(k)
		if err := w.AddNode(fmt.Sprintf("dealer%d", k), dealers[k-1]); err != nil {
			return nil, err
		}
	}
	if err := w.AddNode("agg", aggModule()); err != nil {
		return nil, err
	}
	if err := w.AddNode("xor", xorModule()); err != nil {
		return nil, err
	}
	for k := 1; k <= 4; k++ {
		if err := w.AddNode(fmt.Sprintf("buy%d", k), dealers[k-1]); err != nil {
			return nil, err
		}
	}
	if err := w.AddNode("car", carModule()); err != nil {
		return nil, err
	}

	if err := w.AddEdge("req", "and", "Requests"); err != nil {
		return nil, err
	}
	for k := 1; k <= 4; k++ {
		if err := w.AddEdge("and", fmt.Sprintf("dealer%d", k), "Requests"); err != nil {
			return nil, err
		}
		if err := w.AddEdge(fmt.Sprintf("dealer%d", k), "agg", fmt.Sprintf("Bids%d", k)); err != nil {
			return nil, err
		}
		if err := w.AddEdge("xor", fmt.Sprintf("buy%d", k), fmt.Sprintf("Purchases%d", k)); err != nil {
			return nil, err
		}
		if err := w.AddEdge(fmt.Sprintf("buy%d", k), "car", fmt.Sprintf("CarOut%d", k)); err != nil {
			return nil, err
		}
	}
	if err := w.AddEdge("agg", "xor", "Best"); err != nil {
		return nil, err
	}
	if err := w.AddEdge("choice", "xor", "Choice"); err != nil {
		return nil, err
	}
	w.In = []string{"req", "choice"}
	w.Out = []string{"car"}
	return w, nil
}

// Buyer is the per-run buyer profile: a fixed desired model, reserve
// price, and probability of accepting a bid (Section 5.2).
type Buyer struct {
	UserID     string
	Model      string
	Reserve    float64
	AcceptProb float64
}

// DealershipParams configures one Car-dealerships run.
type DealershipParams struct {
	// NumCars is the total number of cars across the four dealerships
	// (the paper uses 20,000 — 5,000 per dealership).
	NumCars int
	// NumExec is the maximum number of executions per run; the run stops
	// early if the buyer purchases a car.
	NumExec int
	// StopOnPurchase ends the run at the first sale (the paper's run
	// semantics); disable to force exactly NumExec executions.
	StopOnPurchase bool
	Seed           int64
	Gran           workflow.Granularity
	// EagerState creates state nodes for all state tuples per invocation.
	EagerState bool
	// EventSink, when non-nil, streams every provenance-graph mutation of
	// the run as a typed event (workflow.WithEventSink) — including the
	// state seeding performed at construction time.
	EventSink func(provgraph.Event)
}

// DealershipRun is the result of driving the dealership workflow.
type DealershipRun struct {
	Workflow   *workflow.Workflow
	Runner     *workflow.Runner
	Executions []*workflow.Execution
	Buyer      Buyer
	Purchased  bool
	// SoldCar is the (CarId, BidId) record of the sale, if any.
	SoldCar *nested.Tuple
	// CarsOfModelPerDealer counts each dealership's inventory of the
	// buyer's model (the natural reduce-task cost for Figure 5(c)).
	CarsOfModelPerDealer [4]int

	params DealershipParams
	rng    *rand.Rand
}

// NewDealershipRun seeds the dealerships and fixes a buyer, leaving the
// executions to ExecuteAll (so harnesses can time the execution loop
// separately from setup).
func NewDealershipRun(p DealershipParams) (*DealershipRun, error) {
	if p.NumCars <= 0 {
		p.NumCars = 20000
	}
	if p.NumExec <= 0 {
		p.NumExec = 10
	}
	rng := rand.New(rand.NewSource(p.Seed))

	w, err := NewDealershipWorkflow()
	if err != nil {
		return nil, err
	}
	var opts []workflow.Option
	if p.EagerState {
		opts = append(opts, workflow.WithEagerStateNodes())
	}
	if p.EventSink != nil {
		opts = append(opts, workflow.WithEventSink(p.EventSink))
	}
	runner, err := workflow.NewRunner(w, p.Gran, opts...)
	if err != nil {
		return nil, err
	}

	run := &DealershipRun{Workflow: w, Runner: runner, params: p, rng: rng}
	run.Buyer = Buyer{
		UserID:     "P1",
		Model:      CarModels[rng.Intn(len(CarModels))],
		AcceptProb: 0.1 + 0.8*rng.Float64(),
	}
	run.Buyer.Reserve = basePrice(run.Buyer.Model) * (0.85 + 0.25*rng.Float64())

	// Seed the inventories.
	perDealer := p.NumCars / 4
	carID := 0
	for k := 1; k <= 4; k++ {
		bag := nested.NewBag()
		for i := 0; i < perDealer; i++ {
			model := CarModels[rng.Intn(len(CarModels))]
			bag.Add(nested.NewTuple(nested.Str(fmt.Sprintf("C%d", carID)), nested.Str(model)))
			if model == run.Buyer.Model {
				run.CarsOfModelPerDealer[k-1]++
			}
			carID++
		}
		if err := runner.SetState(fmt.Sprintf("M_dealer%d", k), "Cars", bag, fmt.Sprintf("d%d.car", k)); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// ExecuteAll drives the run: one execution per bid request until a
// purchase (when StopOnPurchase is set) or NumExec (Section 5.2: "A run
// terminates either when a buyer chooses to purchase a car, or the
// maximum number of executions is reached").
func (run *DealershipRun) ExecuteAll() error {
	p := run.params
	for e := len(run.Executions); e < p.NumExec; e++ {
		inputs := workflow.Inputs{
			"req": {"Requests": nested.NewBag(nested.NewTuple(
				nested.Str(run.Buyer.UserID), nested.Str(fmt.Sprintf("B%d", e)), nested.Str(run.Buyer.Model)))},
			"choice": {"Choice": nested.NewBag(nested.NewTuple(
				nested.Float(run.Buyer.Reserve), nested.Float(run.Buyer.AcceptProb), nested.Float(run.rng.Float64())))},
		}
		exec, err := run.Runner.Execute(inputs)
		if err != nil {
			return err
		}
		run.Executions = append(run.Executions, exec)
		if sold, ok := exec.Output("car", "Sold"); ok && sold.Len() > 0 {
			run.Purchased = true
			run.SoldCar = sold.Tuples[0].Tuple
			if p.StopOnPurchase {
				break
			}
		}
	}
	return nil
}

// RunDealership is NewDealershipRun followed by ExecuteAll.
func RunDealership(p DealershipParams) (*DealershipRun, error) {
	run, err := NewDealershipRun(p)
	if err != nil {
		return nil, err
	}
	if err := run.ExecuteAll(); err != nil {
		return nil, err
	}
	return run, nil
}
