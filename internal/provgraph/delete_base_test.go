package provgraph_test

import (
	"slices"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// TestBaseDeletionMatchesReference holds the deletion loop on a
// snapshot's graph to the reference kernel, for the deletion of every
// slot: on a graph without dead slots, where live in-degrees are read
// off the adjacency's lengths, on one with the cascade of an applied
// delete dead, where they are counted, and through an overlay after a
// zoom round trip, which answers from its base.
func TestBaseDeletionMatchesReference(t *testing.T) {
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 60, NumExec: 3, Seed: 5, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	dead := run.Runner.Graph().Clone()
	provgraph.RefDelete(dead, workflowgen.HighFanoutNodes(dead, 3)[2])
	for _, b := range []struct {
		name string
		g    *provgraph.Graph
	}{
		{"snapshot", provgraph.FromFrozen(provgraph.Freeze(run.Runner.Graph()), nil)},
		{"snapshot-dead", provgraph.FromFrozen(provgraph.Freeze(dead), nil)},
	} {
		ov := provgraph.NewOverlay(b.g)
		ov.ZoomIn(ov.ZoomOut("M_dealer1"))
		for id := provgraph.NodeID(0); int(id) < b.g.TotalNodes(); id++ {
			want := provgraph.RefPropagateDeletion(b.g, id)
			if got := b.g.PropagateDeletion(id).Removed; !slices.Equal(got, want) {
				t.Fatalf("%s: delete %d removed %v, reference %v", b.name, id, got, want)
			}
			if got := ov.PropagateDeletion(id).Removed; !slices.Equal(got, want) {
				t.Fatalf("%s: delete %d after a round trip removed %v, reference %v", b.name, id, got, want)
			}
		}
	}
}
