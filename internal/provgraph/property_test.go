package provgraph

import (
	"math/rand"
	"testing"

	"lipstick/internal/nested"
)

// randomPipeline builds a random chain of 2-4 modules, each with random
// internal structure (joins over state, groups, aggregates), returning the
// graph and the module names.
func randomPipeline(r *rand.Rand) (*Graph, []string) {
	b := NewBuilder()
	cur := b.WorkflowInput("I")
	nModules := 2 + r.Intn(3)
	names := make([]string, nModules)
	for m := 0; m < nModules; m++ {
		name := "M" + string(rune('a'+m))
		names[m] = name
		inv := b.BeginInvocation(name, name, 0)
		in := b.ModuleInput(inv, cur)
		frontier := []NodeID{in}
		// Random state tuples joined in.
		for s, n := 0, r.Intn(3); s < n; s++ {
			base := b.BaseTuple(name + "_s" + string(rune('0'+s)))
			st := b.StateTuple(inv, base)
			frontier = append(frontier, b.Join(st, frontier[r.Intn(len(frontier))]))
		}
		// Random internal ops.
		for o, n := 0, 1+r.Intn(4); o < n; o++ {
			pick := func() NodeID { return frontier[r.Intn(len(frontier))] }
			switch r.Intn(4) {
			case 0:
				frontier = append(frontier, b.Project(pick()))
			case 1:
				frontier = append(frontier, b.Join(pick(), pick()))
			case 2:
				frontier = append(frontier, b.Group(pick(), pick()))
			default:
				agg := b.Aggregate("COUNT", []AggContribution{
					{TupleProv: pick(), Value: nested.Int(1)},
				}, nested.Int(1))
				p := b.Project(pick())
				b.G.AddEdge(agg, p)
				frontier = append(frontier, p)
			}
		}
		cur = b.ModuleOutput(inv, frontier[len(frontier)-1])
	}
	return b.G, names
}

// TestZoomRoundTripRandom: for random pipelines, ZoomOut of any module
// subset followed by ZoomIn restores the graph exactly, and the zoomed
// graph stays acyclic.
func TestZoomRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, names := randomPipeline(r)
		if !g.IsAcyclic() {
			t.Fatalf("seed %d: pipeline not acyclic", seed)
		}
		// Random non-empty subset of modules.
		var subset []string
		for _, n := range names {
			if r.Intn(2) == 0 {
				subset = append(subset, n)
			}
		}
		if len(subset) == 0 {
			subset = names[:1]
		}
		ov := NewOverlay(g)
		rec := ov.ZoomOut(subset...)
		if !ov.Materialize().IsAcyclic() {
			t.Fatalf("seed %d: zoomed graph cyclic", seed)
		}
		ov.ZoomIn(rec)
		if !ViewsStructurallyEqual(ov, g) {
			t.Fatalf("seed %d: zoom round trip failed for subset %v", seed, subset)
		}
	}
}

// TestZoomPreservesBoundaryReachability: if an output was reachable from
// an input before zooming, it stays reachable after (the zoom node
// replaces the internal path).
func TestZoomPreservesBoundaryReachability(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed + 1000))
		g, names := randomPipeline(r)
		// Record reachability input -> final outputs.
		var inputs, outputs []NodeID
		g.Nodes(func(n Node) bool {
			switch n.Type {
			case TypeWorkflowInput:
				inputs = append(inputs, n.ID)
			case TypeModuleOutput:
				outputs = append(outputs, n.ID)
			}
			return true
		})
		type pair struct{ a, b NodeID }
		reachable := map[pair]bool{}
		for _, in := range inputs {
			desc := toSet(g.Descendants(in))
			for _, out := range outputs {
				reachable[pair{in, out}] = desc[out]
			}
		}
		ov := NewOverlay(g)
		ov.ZoomOut(names...)
		for _, in := range inputs {
			desc := toSet(ov.Descendants(in))
			for _, out := range outputs {
				if reachable[pair{in, out}] && !desc[out] {
					t.Fatalf("seed %d: zoom broke reachability %d -> %d", seed, in, out)
				}
			}
		}
	}
}

// TestDeletionAfterZoomIsCoarse: on a fully zoomed graph, deleting a
// module input kills the invocation's outputs (black-box semantics).
func TestDeletionAfterZoomIsCoarse(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	ov.ZoomOut("M_and", "M_dealer1", "M_dealer2", "M_agg")
	res := ov.PropagateDeletion(f.n00)
	// All module outputs die: everything flows from the single input.
	ov.Nodes(func(n Node) bool {
		if n.Type == TypeModuleOutput && !res.Deleted(n.ID) {
			t.Errorf("coarse deletion should remove output node %d", n.ID)
		}
		return true
	})
}

// TestSubgraphContainedInGraph: subgraph nodes are always live graph
// nodes, and the root's ancestors/descendants are included.
func TestSubgraphContainedInGraph(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed + 2000))
		g, _ := randomPipeline(r)
		var ids []NodeID
		g.Nodes(func(n Node) bool { ids = append(ids, n.ID); return true })
		root := ids[r.Intn(len(ids))]
		sub := g.Subgraph(root)
		member := map[NodeID]bool{}
		for _, id := range sub.Nodes {
			if !g.Alive(id) {
				t.Fatalf("seed %d: dead node %d in subgraph", seed, id)
			}
			member[id] = true
		}
		for _, a := range g.Ancestors(root) {
			if !member[a] {
				t.Fatalf("seed %d: ancestor %d missing from subgraph", seed, a)
			}
		}
		for _, d := range g.Descendants(root) {
			if !member[d] {
				t.Fatalf("seed %d: descendant %d missing from subgraph", seed, d)
			}
		}
	}
}
