// Command whatif demonstrates Section 4's workflow analytics on a small
// tracked run: deletion propagation (Definition 4.2) with aggregate
// recomputation (Example 4.3), dependency queries (Section 4.3), zooming
// (Section 4.1), the semiring reading of graph provenance (Section 2.3),
// and the DOT/OPM exports.
package main

import (
	"fmt"
	"log"
	"os"

	"lipstick"
	"lipstick/internal/opm"
)

func main() {
	// The workflow: a request joins against a stateful inventory; a COUNT
	// aggregates the matches — the dealer skeleton of the paper's
	// Example 2.3 at readable size.
	str := lipstick.ScalarType(lipstick.KindString)
	reqSchema := lipstick.NewSchema(lipstick.Field{Name: "Model", Type: str})
	carSchema := lipstick.NewSchema(
		lipstick.Field{Name: "CarId", Type: str},
		lipstick.Field{Name: "Model", Type: str},
	)
	countSchema := lipstick.NewSchema(
		lipstick.Field{Name: "Model", Type: str},
		lipstick.Field{Name: "NumAvail", Type: lipstick.ScalarType(lipstick.KindInt)},
	)

	source := &lipstick.Module{Name: "M_req", Out: lipstick.RelationSchemas{"Requests": reqSchema}}
	dealer := &lipstick.Module{
		Name:  "M_dealer",
		In:    lipstick.RelationSchemas{"Requests": reqSchema},
		State: lipstick.RelationSchemas{"Cars": carSchema},
		Out:   lipstick.RelationSchemas{"NumCarsByModel": countSchema},
		Program: `
ReqModel = FOREACH Requests GENERATE Model;
Inventory = JOIN Cars BY Model, ReqModel BY Model;
CarsByModel = GROUP Inventory BY Cars::Model;
NumCarsByModel = FOREACH CarsByModel GENERATE group AS Model, COUNT(Inventory) AS NumAvail;
`,
	}
	w := lipstick.NewWorkflow()
	for name, m := range map[string]*lipstick.Module{"req": source, "dealer": dealer} {
		if err := w.AddNode(name, m); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.AddEdge("req", "dealer", "Requests"); err != nil {
		log.Fatal(err)
	}
	w.In = []string{"req"}
	w.Out = []string{"dealer"}

	tracker, err := lipstick.NewTracker(w, lipstick.Fine)
	if err != nil {
		log.Fatal(err)
	}
	// Example 2.3's inventory: an Accord and two Civics.
	cars := lipstick.NewBag(
		lipstick.NewTuple(lipstick.Str("C1"), lipstick.Str("Accord")),
		lipstick.NewTuple(lipstick.Str("C2"), lipstick.Str("Civic")),
		lipstick.NewTuple(lipstick.Str("C3"), lipstick.Str("Civic")),
	)
	if err := tracker.Runner().SetState("M_dealer", "Cars", cars, "C"); err != nil {
		log.Fatal(err)
	}
	exec, err := tracker.Execute(lipstick.Inputs{
		"req": {"Requests": lipstick.NewBag(lipstick.NewTuple(lipstick.Str("Civic")))},
	})
	if err != nil {
		log.Fatal(err)
	}
	out, _ := exec.Output("dealer", "NumCarsByModel")
	fmt.Printf("output: %s\n", out) // {<Civic,2>}

	qp := lipstick.FromTracker(tracker)
	countTuple := lipstick.NewTuple(lipstick.Str("Civic"), lipstick.Int(2))
	countNode, ok, err := qp.FindOutputTuple("dealer", "NumCarsByModel", countTuple)
	if err != nil || !ok {
		log.Fatalf("count tuple not found (%v)", err)
	}

	// The semiring reading of the output's provenance (Section 2.3).
	fmt.Printf("provenance polynomial: %s\n", qp.Polynomial(countNode))

	// Dependency queries (Example 4.5's pattern): the count exists
	// regardless of any single Civic, but not without the request.
	civic := qp.FindNodes(lipstick.NodeFilter{Label: "C1"}) // state tokens are C0,C1,C2
	if len(civic) == 1 {
		fmt.Printf("count depends on one Civic alone? %v\n", qp.DependsOn(countNode, civic[0]))
	}

	l := qp.Lineage(countNode)
	fmt.Printf("lineage: %d inputs, %d state tuples, modules %v\n",
		len(l.Inputs), len(l.StateTuples), l.Modules)
	fmt.Printf("count depends on the request? %v\n", qp.DependsOn(countNode, l.Inputs[0]))

	// What-if deletion (Figure 3): remove one Civic in a copy-on-write
	// overlay of the graph; the COUNT survives and is recomputed from 2
	// to 1.
	ov := lipstick.NewOverlay(qp.Graph())
	res := ov.Delete(l.StateTuples[0])
	recs := ov.RecomputeAggregates()
	fmt.Printf("deleting one Civic removed %d nodes; count deleted? %v\n",
		res.Size(), res.Deleted(countNode))
	for _, rec := range recs {
		fmt.Printf("recomputed %s: %s -> %s (%d surviving contributions)\n",
			rec.Op, rec.Before, rec.After, rec.Survivors)
	}

	// Exports: Graphviz DOT of the fine view, OPM of the coarse skeleton,
	// both after the deletion.
	if err := ov.WriteDOT(os.Stdout, "whatif"); err != nil {
		log.Fatal(err)
	}
	doc := opm.Export(ov.Materialize())
	fmt.Printf("OPM skeleton: %d artifacts, %d processes, %d edges\n",
		len(doc.Artifacts), len(doc.Processes), len(doc.Edges))
}
