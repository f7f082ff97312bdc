package provgraph_test

import (
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// BenchmarkSubgraph answers subgraph queries over a fine-grained
// dealership graph frozen and reloaded the way a snapshot open builds it
// (CSR adjacency over read-only bases): on the graph itself, through a
// fresh session overlay over it, and through an overlay that has zoomed
// out a dealership, so the walk reads liveness pages, adjacency with
// appended edges and appended zoom nodes. The targets are module outputs
// whose subgraphs hold thousands of nodes, the shape that dominates a
// query mix's subgraph cost.
func BenchmarkSubgraph(b *testing.B) {
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 8000, NumExec: 20, Seed: 1, Gran: workflow.Fine,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := provgraph.FromFrozen(provgraph.Freeze(run.Runner.Graph()), nil)
	var outputs, targets []provgraph.NodeID
	g.Nodes(func(n provgraph.Node) bool {
		if n.Type == provgraph.TypeModuleOutput {
			outputs = append(outputs, n.ID)
		}
		return true
	})
	for i := 0; i < len(outputs); i += len(outputs)/32 + 1 {
		if g.Subgraph(outputs[i]).Size() >= 2000 {
			targets = append(targets, outputs[i])
		}
	}
	if len(targets) < 8 {
		b.Fatalf("%d of %d module outputs have a subgraph of 2000 nodes", len(targets), len(outputs))
	}
	zoomed := provgraph.NewOverlay(g)
	zoomed.ZoomOut("M_dealer1")
	for _, c := range []struct {
		name string
		v    provgraph.GraphView
	}{{"graph", g}, {"overlay", provgraph.NewOverlay(g)}, {"overlay-zoomed", zoomed}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				c.v.Subgraph(targets[i%len(targets)])
				i++
			}
		})
	}
}
