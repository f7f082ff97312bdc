// Command cardealers runs the paper's running example (Figure 1): a buyer
// requests bids for a car model from four dealerships; each dealership
// computes a bid from its inventory, sales history, and previous bids (a
// CalcBid black box over Pig Latin aggregations); an aggregator picks the
// minimum bid; the buyer accepts or declines; an accepted bid routes a
// purchase to the winning dealership.
//
// It then answers the introduction's analytic questions on the tracked
// provenance: "Which cars affected the computation of this winning bid?",
// and "Had this car not been present, would its dealer still have made a
// sale?" (deletion propagation, Section 4.2).
package main

import (
	"fmt"
	"log"

	"lipstick"
	"lipstick/internal/workflowgen"
)

func main() {
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars:        240, // 60 cars per dealership
		NumExec:        20,
		Seed:           11,
		Gran:           lipstick.Fine,
		StopOnPurchase: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("buyer %s wants a %s (reserve %.0f, accept probability %.2f)\n",
		run.Buyer.UserID, run.Buyer.Model, run.Buyer.Reserve, run.Buyer.AcceptProb)
	fmt.Printf("dealership inventory of that model: %v\n", run.CarsOfModelPerDealer)
	fmt.Printf("executions until termination: %d\n", len(run.Executions))
	if run.Purchased {
		fmt.Printf("sold: car %s under bid %s\n",
			run.SoldCar.Fields[0], run.SoldCar.Fields[1])
	} else {
		fmt.Println("no sale (reserve or luck ran out)")
	}

	g := run.Runner.Graph()
	fmt.Printf("provenance graph: %d nodes, %d edges, %d module invocations\n",
		g.NumNodes(), g.NumEdges(), g.NumInvocations())

	if !run.Purchased {
		return
	}

	// Locate the sale's provenance: the car module's output of the last
	// execution.
	last := run.Executions[len(run.Executions)-1]
	sold, _ := last.Output("car", "Sold")
	saleNode := sold.Tuples[0].Prov

	// "Which cars affected the computation of this winning bid?" — the
	// base-tuple ancestors of the sale.
	var cars []lipstick.NodeID
	for _, anc := range g.Ancestors(saleNode) {
		if g.Node(anc).Type == lipstick.TypeBaseTuple {
			cars = append(cars, anc)
		}
	}
	fmt.Printf("the sale's fine-grained provenance draws on %d car tuples (of %d in state)\n",
		len(cars), 240)

	// "Had this car not been present, would its dealer still have made a
	// sale?" — deletion propagation from each car's tuple (Section 4.2).
	// The typical answer is that the sale survives every single-car
	// deletion: the grouping (δ) and aggregation tolerate losing one
	// member, and the dealership would simply have sold another car — the
	// intro's "Had this Toyota Prius not been present, would its dealer
	// still have made a sale?" answered affirmatively.
	killers := 0
	var sample *lipstick.DeletionResult
	for _, c := range cars {
		res := g.PropagateDeletion(c)
		if sample == nil {
			sample = res
		}
		if res.Deleted(saleNode) {
			killers++
		}
	}
	fmt.Printf("cars whose individual absence would have killed this exact sale: %d\n", killers)
	if sample != nil {
		fmt.Printf("a single car's deletion propagates to %d provenance nodes\n", sample.Size())
	}

	// Winning bids tolerate losing one competing car: Example 4.5's
	// observation, measured across all cars.
	m := workflowgen.MeasureFineGrainedness(run)
	fmt.Printf("dependency profile: %s\n", m)

	// Coarse view: zoom out the dealers; internals and state disappear.
	rec := lipstick.NewOverlay(g).ZoomOut("M_dealer1", "M_dealer2", "M_dealer3", "M_dealer4", "M_agg")
	fmt.Printf("zooming out dealers+aggregator hides %d nodes\n", rec.HiddenCount())
}
