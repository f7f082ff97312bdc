// Command quickstart is the smallest end-to-end Lipstick session: define a
// two-module workflow whose modules are Pig Latin queries, run it with
// fine-grained provenance tracking, persist the provenance, and ask the
// questions coarse-grained provenance cannot answer — which inputs and
// which state tuples does an output actually depend on?
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"lipstick"
)

func main() {
	str := lipstick.ScalarType(lipstick.KindString)
	flt := lipstick.ScalarType(lipstick.KindFloat)

	orderSchema := lipstick.NewSchema(
		lipstick.Field{Name: "Sku", Type: str},
	)
	itemSchema := lipstick.NewSchema(
		lipstick.Field{Name: "Sku", Type: str},
		lipstick.Field{Name: "Price", Type: flt},
	)
	totalSchema := lipstick.NewSchema(
		lipstick.Field{Name: "Total", Type: flt},
	)

	// A source module delivering orders, a stateful catalog module
	// matching them against inventory, and a totalling module.
	source := &lipstick.Module{
		Name: "M_orders",
		Out:  lipstick.RelationSchemas{"Orders": orderSchema},
	}
	catalog := &lipstick.Module{
		Name:  "M_catalog",
		In:    lipstick.RelationSchemas{"Orders": orderSchema},
		State: lipstick.RelationSchemas{"Items": itemSchema},
		Out:   lipstick.RelationSchemas{"Matches": itemSchema},
		Program: `
MJ = JOIN Items BY Sku, Orders BY Sku;
Matches = FOREACH MJ GENERATE Items::Sku AS Sku, Items::Price AS Price;
`,
	}
	total := &lipstick.Module{
		Name: "M_total",
		In:   lipstick.RelationSchemas{"Matches": itemSchema},
		Out:  lipstick.RelationSchemas{"Totals": totalSchema},
		Program: `
G = GROUP Matches BY 1;
Totals = FOREACH G GENERATE SUM(Matches.Price) AS Total;
`,
	}

	w := lipstick.NewWorkflow()
	must(w.AddNode("orders", source))
	must(w.AddNode("catalog", catalog))
	must(w.AddNode("total", total))
	must(w.AddEdge("orders", "catalog", "Orders"))
	must(w.AddEdge("catalog", "total", "Matches"))
	w.In = []string{"orders"}
	w.Out = []string{"total"}

	// Track an execution at fine granularity.
	tracker, err := lipstick.NewTracker(w, lipstick.Fine)
	must(err)
	items := lipstick.NewBag(
		lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(10)),
		lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(12)),
		lipstick.NewTuple(lipstick.Str("B"), lipstick.Float(99)),
	)
	must(tracker.Runner().SetState("M_catalog", "Items", items, "item"))

	exec, err := tracker.Execute(lipstick.Inputs{
		"orders": {"Orders": lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A")))},
	})
	must(err)
	totals, _ := exec.Output("total", "Totals")
	fmt.Printf("workflow output: %s\n", totals)

	// Persist the provenance and load it back (the Lipstick tracker/query
	// processor split of the paper's Section 5.1).
	dir, err := os.MkdirTemp("", "lipstick-quickstart")
	must(err)
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.lpsk")
	must(tracker.Save(path))
	qp, err := lipstick.Load(path)
	must(err)
	fmt.Printf("provenance graph: %d nodes, %d edges\n",
		qp.Graph().NumNodes(), qp.Graph().NumEdges())

	// What does the total depend on?
	totalNode, ok, err := qp.FindOutputTuple("total", "Totals", lipstick.NewTuple(lipstick.Float(22)))
	must(err)
	if !ok {
		log.Fatal("total tuple not found in provenance")
	}
	lineage := qp.Lineage(totalNode)
	fmt.Printf("the total draws on %d workflow input(s), %d state tuple(s), via modules %v\n",
		len(lineage.Inputs), len(lineage.StateTuples), lineage.Modules)

	// What-if: delete one of the two matching items; the total survives
	// (and its SUM can be recomputed), while deleting the order kills it.
	items0 := qp.FindNodes(lipstick.NodeFilter{Label: "item0"})
	if len(items0) == 1 {
		fmt.Printf("does the total depend on item0? %v\n", qp.DependsOn(totalNode, items0[0]))
	}
	order := lineage.Inputs[0]
	fmt.Printf("does the total depend on the order? %v\n", qp.DependsOn(totalNode, order))

	// Zoom out the catalog module in a session: its view becomes coarse
	// for it, while the processor's graph stays as tracked.
	sess := lipstick.NewSession(qp)
	before := sess.NumNodes()
	_, err = sess.ZoomOut("M_catalog")
	must(err)
	fmt.Printf("zoom-out hid %d nodes\n", before-sess.NumNodes())
	_, err = sess.ZoomIn()
	must(err)
	fmt.Println("zoom-in restored the fine-grained view")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
