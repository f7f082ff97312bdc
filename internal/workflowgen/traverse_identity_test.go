package workflowgen

import (
	"fmt"
	"sync"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
)

// TestParallelTraversalByteIdentity holds the two BFS loops to each
// other: on a *Graph, Ancestors, Descendants and Subgraph take the
// concrete loop over the graph's storage, and on a fresh overlay over the
// same graph the generic loop over the view primitives. Run side by side
// in two goroutines over the shared base, they must return the same
// node-id sequences, element for element, from a stride sample of start
// nodes plus every 17th workflow input and module output. The bases are
// the three tracked workloads (dealership, arctic, and the synthetic
// graphmem generator) and the storage shapes the concrete loop branches
// on: edges spilled onto a reloaded snapshot's CSR slots, dead nodes, and
// a live graph's published view, whose adjacency sits in chunked tails.
func TestParallelTraversalByteIdentity(t *testing.T) {
	deal, err := RunDealership(DealershipParams{
		NumCars: 160, NumExec: 4, Seed: 11, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	arctic, err := NewArcticRun(ArcticParams{
		Stations: 6, Topology: Dense, FanOut: 2, NumExec: 2,
		Seed: 11, Gran: workflow.Fine, HistoryYears: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	synth, _ := SyntheticGraph(30_000, 7)

	// Each high-fan-out node gains an edge to one of the last slots, so
	// both adjacency directions spill on base-covered slots.
	spilled := provgraph.FromFrozen(provgraph.Freeze(deal.Runner.Graph()), nil)
	for i, hub := range HighFanoutNodes(spilled, 8) {
		spilled.AddEdge(hub, provgraph.NodeID(spilled.TotalNodes()-1-i))
	}
	dead := deal.Runner.Graph().Clone()
	deleteInPlace(t, dead, HighFanoutNodes(dead, 3)[2])
	live := deal.Runner.Graph().Clone()
	deleteInPlace(t, live, HighFanoutNodes(live, 1)[0])
	published := live.PublishView()
	deleteInPlace(t, live, HighFanoutNodes(live, 1)[0])

	for _, c := range []struct {
		name string
		g    *provgraph.Graph
	}{
		{"dealership", deal.Runner.Graph()},
		{"arctic", arctic.Runner.Graph()},
		{"graphmem", synth},
		{"spilled", spilled},
		{"dead", dead},
		{"published", published},
	} {
		t.Run(c.name, func(t *testing.T) {
			starts := sampleStarts(c.g)
			if len(starts) < 8 {
				t.Fatalf("only %d start nodes sampled", len(starts))
			}
			var answers [2][][]provgraph.NodeID
			var wg sync.WaitGroup
			for i, v := range []provgraph.GraphView{c.g, provgraph.NewOverlay(c.g)} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, id := range starts {
						answers[i] = append(answers[i], v.Ancestors(id), v.Descendants(id), v.Subgraph(id).Nodes)
					}
				}()
			}
			wg.Wait()
			for i, got := range answers[0] {
				id, query := starts[i/3], [3]string{"Ancestors", "Descendants", "Subgraph"}[i%3]
				if err := sameIDSeq(answers[1][i], got); err != nil {
					t.Fatalf("%s(%d): graph vs overlay: %v", query, id, err)
				}
			}
		})
	}
}

// sampleStarts picks traversal roots: every workflow input (forward
// sweeps), every module output (ancestry sweeps), and a stride sample of
// the id space for everything in between.
func sampleStarts(g *provgraph.Graph) []provgraph.NodeID {
	var starts []provgraph.NodeID
	seen := map[provgraph.NodeID]bool{}
	add := func(id provgraph.NodeID) {
		if !seen[id] && g.Alive(id) {
			seen[id] = true
			starts = append(starts, id)
		}
	}
	count := 0
	g.Nodes(func(n provgraph.Node) bool {
		if n.Type == provgraph.TypeWorkflowInput || n.Type == provgraph.TypeModuleOutput {
			if count++; count%17 == 0 { // every 17th keeps the sweep bounded
				add(n.ID)
			}
		}
		return true
	})
	stride := g.TotalNodes()/16 + 1
	for i := 0; i < g.TotalNodes(); i += stride {
		add(provgraph.NodeID(i))
	}
	return starts
}

// sameIDSeq demands exact element-for-element equality (nil and empty
// are interchangeable; order is part of the contract).
func sameIDSeq(want, got []provgraph.NodeID) error {
	if len(want) != len(got) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("element %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// deleteInPlace applies the deletion of id to g as a live graph ingests
// it: one kill event per node the propagation removes.
func deleteInPlace(t *testing.T, g *provgraph.Graph, id provgraph.NodeID) {
	t.Helper()
	for _, n := range g.PropagateDeletion(id).Removed {
		if err := provgraph.Apply(g, &provgraph.Event{Kind: provgraph.EvKill, Src: n}); err != nil {
			t.Fatal(err)
		}
	}
}
