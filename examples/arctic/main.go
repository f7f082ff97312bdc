// Command arctic runs the paper's Arctic-stations workflow (Section 5.2):
// meteorological station modules arranged in a dense topology take monthly
// measurements, maintain 1961-2000 observation history in module state,
// and propagate the minimum air temperature (at a chosen selectivity)
// toward the workflow output. It demonstrates how selectivity shapes the
// fine-grained provenance, and uses zoom and subgraph queries to inspect a
// station.
package main

import (
	"fmt"
	"log"

	"lipstick"
	"lipstick/internal/workflowgen"
)

func main() {
	for _, sel := range workflowgen.Selectivities {
		run, err := workflowgen.NewArcticRun(workflowgen.ArcticParams{
			Stations:     9,
			Topology:     workflowgen.Dense,
			FanOut:       3, // Figure 4(c)'s shape
			Selectivity:  sel,
			NumExec:      3,
			Seed:         7,
			Gran:         lipstick.Fine,
			HistoryYears: 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := run.ExecuteAll(); err != nil {
			log.Fatal(err)
		}
		min, _ := run.MinTemp(2)
		g := run.Runner.Graph()
		fmt.Printf("selectivity %-7s min temp %6.1f°C  graph: %6d nodes %6d edges\n",
			sel, min, g.NumNodes(), g.NumEdges())
	}

	// Inspect one run more deeply.
	run, err := workflowgen.NewArcticRun(workflowgen.ArcticParams{
		Stations: 9, Topology: workflowgen.Dense, FanOut: 3,
		Selectivity: workflowgen.SelMonth, NumExec: 3, Seed: 7,
		Gran: lipstick.Fine, HistoryYears: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := run.ExecuteAll(); err != nil {
		log.Fatal(err)
	}
	g := run.Runner.Graph()

	// The workflow output's lineage: which stations' observations did the
	// overall minimum actually draw on?
	out, _ := run.Executions[2].Output("out", "MinTemp")
	anc := g.Ancestors(out.Tuples[0].Prov)
	stations := map[string]bool{}
	obsCount := 0
	for _, id := range anc {
		n := g.Node(id)
		if n.Type == lipstick.TypeInvocation {
			stations[n.Label] = true
		}
		if n.Type == lipstick.TypeBaseTuple {
			obsCount++
		}
	}
	fmt.Printf("\nfinal minimum depends on %d historical observations across %d module(s)\n",
		obsCount, len(stations))

	// Zoom out the middle layer: its aggregations disappear, the boundary
	// stays queryable.
	rec := lipstick.NewOverlay(g).ZoomOut("M_sta4", "M_sta5", "M_sta6")
	fmt.Printf("zooming out the middle layer hides %d nodes\n", rec.HiddenCount())

	// Subgraph query from a high-fan-out node (Section 5.6).
	targets := workflowgen.HighFanoutNodes(g, 1)
	sub := g.Subgraph(targets[0])
	fmt.Printf("subgraph of the highest-fan-out node spans %d nodes\n", sub.Size())
}
