package provgraph_test

import (
	"fmt"
	"slices"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// dealerModules are the five modules a what-if session zooms on the
// dealership workflow.
var dealerModules = []string{"M_agg", "M_dealer1", "M_dealer2", "M_dealer3", "M_dealer4"}

// overlayState is what a zoom round trip must leave as it found it: the
// slot, delta and edge counts, and the adjacency of every zoomed
// module's inputs and outputs.
type overlayState struct {
	total, changes, edges int
	adj                   string
}

func stateOf(ov *provgraph.Overlay) overlayState {
	s := overlayState{total: ov.TotalNodes(), changes: ov.Changes(), edges: ov.NumEdges()}
	adj := []byte{}
	for _, m := range dealerModules {
		for _, i := range ov.InvocationsOf(m) {
			inv := ov.Invocation(i)
			for _, id := range slices.Concat(inv.Inputs, inv.Outputs) {
				adj = fmt.Appendf(adj, "%d:%v/%v ", id, ov.Out(id), ov.In(id))
			}
		}
	}
	s.adj = string(adj)
	return s
}

func sameState(t *testing.T, what string, got, want overlayState) {
	t.Helper()
	if got.total != want.total || got.changes != want.changes || got.edges != want.edges {
		t.Errorf("%s: TotalNodes/Changes/NumEdges = %d/%d/%d, want %d/%d/%d",
			what, got.total, got.changes, got.edges, want.total, want.changes, want.edges)
	}
	if got.adj != want.adj {
		t.Errorf("%s: Out/In of the zoomed inputs and outputs differ", what)
	}
}

// TestZoomRoundTripRollsBack: a ZoomIn that undoes the overlay's newest
// zoom rolls the overlay back, so a session does not grow with its zoom
// round trips. After 1 and after 1,000 round trips over the dealership
// modules, on a fresh overlay and on one with an applied delete, the
// overlay reads as before the first zoom; so does a nested stack, and a
// round trip nested over a zoom that a delete followed. A ZoomIn of a
// zoom that a delete followed keeps hiding nothing and showing no zoom
// node, as a clone the delete alone mutated does.
func TestZoomRoundTripRollsBack(t *testing.T) {
	deal, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 120, NumExec: 3, Seed: 5, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := deal.Runner.Graph()
	victim := workflowgen.HighFanoutNodes(g, 3)[2]

	for _, c := range []struct {
		name string
		prep func(*provgraph.Overlay)
	}{
		{"fresh", func(*provgraph.Overlay) {}},
		{"deleted", func(ov *provgraph.Overlay) {
			ov.Delete(victim)
			ov.RecomputeAggregates()
		}},
	} {
		ov := provgraph.NewOverlay(g)
		c.prep(ov)
		before := stateOf(ov)
		for i, m := range dealerModules {
			ov.ZoomIn(zoomOut(ov, []string{m}))
			sameState(t, fmt.Sprintf("%s: after 1 round trip of %s", c.name, m), stateOf(ov), before)
			if i == 0 && c.name == "fresh" && ov.Changes() != 0 {
				t.Fatalf("fresh: %d changes after a round trip", ov.Changes())
			}
		}
		for i := range 1000 {
			ov.ZoomIn(zoomOut(ov, []string{dealerModules[i%len(dealerModules)]}))
		}
		sameState(t, c.name+": after 1,000 round trips", stateOf(ov), before)

		a := zoomOut(ov, []string{"M_dealer1"})
		zoomedA := stateOf(ov)
		b := zoomOut(ov, []string{"M_agg", "M_dealer3"})
		ov.ZoomIn(b)
		sameState(t, c.name+": A out, B out, B in", stateOf(ov), zoomedA)
		ov.ZoomIn(a)
		sameState(t, c.name+": A out, B out, B in, A in", stateOf(ov), before)
	}

	// A out, delete, B out, B in: the B round trip rolls back to the
	// state after the delete. A in then leaves the view of a clone the
	// delete alone mutated.
	ov := provgraph.NewOverlay(g)
	a := zoomOut(ov, []string{"M_dealer2"})
	ov.Delete(victim)
	afterDelete := stateOf(ov)
	ov.ZoomIn(zoomOut(ov, []string{"M_agg"}))
	sameState(t, "A out, delete, B out, B in", stateOf(ov), afterDelete)
	ov.ZoomIn(a)
	clone := g.Clone()
	provgraph.RefDelete(clone, victim)
	if !provgraph.ViewsStructurallyEqual(ov, clone) || ov.NumNodes() != clone.NumNodes() {
		t.Errorf("A out, delete, A in: the view (%d nodes) differs from a mutated clone (%d nodes)", ov.NumNodes(), clone.NumNodes())
	}
}
