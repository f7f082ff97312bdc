package provgraph

import (
	"math/rand"
	"reflect"
	"testing"

	"lipstick/internal/nested"
)

// randomDAG builds a deterministic layered DAG with roughly fan edges per
// node, via the event-emitting mutators so it resembles a live ingest.
func randomDAG(t *testing.T, nodes, fan int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < nodes; i++ {
		typ := TypeOp
		op := OpTimes
		if i%17 == 0 {
			typ, op = TypeBaseTuple, OpNone
		}
		id := g.AddNode(Node{Class: ClassP, Type: typ, Op: op, Label: "n"})
		for e := 0; e < fan && i > 0; e++ {
			src := NodeID(rng.Intn(i))
			g.AddEdge(src, id)
		}
		if i%31 == 30 {
			g.kill(NodeID(rng.Intn(i + 1)))
		}
	}
	return g
}

// mutateSome applies a burst of post-publish mutations of every kind that
// writes below the publish watermark.
func mutateSome(g *Graph, rng *rand.Rand, rounds int) {
	for i := 0; i < rounds; i++ {
		n := g.TotalNodes()
		id := g.AddNode(Node{Class: ClassV, Type: TypeValue, Op: OpConst, Value: nested.Int(int64(i))})
		g.AddEdge(NodeID(rng.Intn(n)), id)
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		g.kill(NodeID(rng.Intn(n)))
		g.revive(NodeID(rng.Intn(n)))
		g.setValue(NodeID(rng.Intn(n)), nested.Int(int64(rng.Intn(1000))))
		if g.NumInvocations() > 0 {
			inv := InvID(rng.Intn(g.NumInvocations()))
			g.setNodeInv(NodeID(rng.Intn(n)), inv)
			g.addAnchor(inv, AnchorInput, NodeID(rng.Intn(n)))
		} else {
			g.AddInvocation(Invocation{Module: "M", NodeName: "m0", MNode: id})
		}
	}
}

// assertViewEquals asserts the published view answers structure and
// traversal queries identically to the reference graph.
func assertViewEquals(t *testing.T, view, ref *Graph, probes []NodeID) {
	t.Helper()
	if !view.StructurallyEqual(ref) {
		t.Fatalf("published view diverged structurally from the publish-time clone")
	}
	if view.NumNodes() != ref.NumNodes() || view.TotalNodes() != ref.TotalNodes() {
		t.Fatalf("node counts diverged: view %d/%d ref %d/%d",
			view.NumNodes(), view.TotalNodes(), ref.NumNodes(), ref.TotalNodes())
	}
	if view.NumInvocations() != ref.NumInvocations() {
		t.Fatalf("invocation counts diverged: %d vs %d", view.NumInvocations(), ref.NumInvocations())
	}
	for i := 0; i < view.NumInvocations(); i++ {
		vi, ri := view.Invocation(InvID(i)), ref.Invocation(InvID(i))
		if vi.Module != ri.Module || !reflect.DeepEqual(vi.Inputs, ri.Inputs) ||
			!reflect.DeepEqual(vi.Outputs, ri.Outputs) || !reflect.DeepEqual(vi.States, ri.States) {
			t.Fatalf("invocation %d diverged: %+v vs %+v", i, vi, ri)
		}
	}
	for _, id := range probes {
		if !reflect.DeepEqual(view.Node(id), ref.Node(id)) {
			t.Fatalf("node %d diverged: %+v vs %+v", id, view.Node(id), ref.Node(id))
		}
		if got, want := view.Ancestors(id), ref.Ancestors(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("ancestors(%d) diverged", id)
		}
		if got, want := view.Descendants(id), ref.Descendants(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("descendants(%d) diverged", id)
		}
	}
}

func probeIDs(g *Graph, rng *rand.Rand, k int) []NodeID {
	out := make([]NodeID, 0, k)
	for len(out) < k {
		out = append(out, NodeID(rng.Intn(g.TotalNodes())))
	}
	return out
}

// TestPublishViewImmutable publishes views across many epochs of heavy
// mutation and asserts every retained view still answers queries exactly
// as a deep clone taken at its publish instant.
func TestPublishViewImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomDAG(t, 3000, 2, 1)
	type epoch struct {
		view, ref *Graph
		probes    []NodeID
	}
	var epochs []epoch
	for e := 0; e < 8; e++ {
		view := g.PublishView()
		ref := g.Clone()
		epochs = append(epochs, epoch{view, ref, probeIDs(ref, rng, 16)})
		mutateSome(g, rng, 200)
	}
	for i, ep := range epochs {
		assertViewEquals(t, ep.view, ep.ref, ep.probes)
		_ = i
	}
}

// TestPublishViewFromThawedSnapshot covers the snapshot-open ingest path:
// freeze, reopen from the frozen columns, thaw for ingest, then publish
// and mutate across epochs.
func TestPublishViewFromThawedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randomDAG(t, 2000, 2, 3)
	mutateSome(src, rng, 50)
	g := FromFrozen(Freeze(src), nil)
	g.PrepareForIngest()
	if !g.StructurallyEqual(src) {
		t.Fatalf("thawed reopen diverged from source")
	}
	var views, refs []*Graph
	var probes [][]NodeID
	for e := 0; e < 5; e++ {
		views = append(views, g.PublishView())
		refs = append(refs, g.Clone())
		probes = append(probes, probeIDs(g, rng, 12))
		mutateSome(g, rng, 150)
	}
	for i := range views {
		assertViewEquals(t, views[i], refs[i], probes[i])
	}
}

// TestPublishedViewTraversalMatchesOverlay: a published view takes the
// *Graph BFS loop, a session overlay over it the generic one. On a
// live-ingested graph large enough for frontiers of thousands and on a
// thawed snapshot — both published with no CSR base, their adjacency in
// chunked tails, with dead nodes, and with the writer mutating after the
// publish — the two loops must answer Ancestors, Descendants and Subgraph
// alike, element for element.
func TestPublishedViewTraversalMatchesOverlay(t *testing.T) {
	thawed := FromFrozen(Freeze(randomDAG(t, 5000, 2, 3)), nil)
	thawed.PrepareForIngest()
	mutateSome(thawed, rand.New(rand.NewSource(3)), 100)
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"live", randomDAG(t, 20000, 3, 5)}, {"thawed", thawed}} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			view := c.g.PublishView()
			mutateSome(c.g, rng, 200)
			if view.in.baseN != 0 || view.out.baseN != 0 || view.dead == 0 {
				t.Fatalf("view has a CSR base (%d/%d slots) or no dead nodes (%d)", view.in.baseN, view.out.baseN, view.dead)
			}
			ov := NewOverlay(view)
			probes := append(probeIDs(view, rng, 40), 0, NodeID(view.TotalNodes()-1))
			for _, id := range probes {
				if got, want := view.Ancestors(id), ov.Ancestors(id); !reflect.DeepEqual(got, want) {
					t.Fatalf("ancestors(%d): view %d ids, overlay %d", id, len(got), len(want))
				}
				if got, want := view.Descendants(id), ov.Descendants(id); !reflect.DeepEqual(got, want) {
					t.Fatalf("descendants(%d): view %d ids, overlay %d", id, len(got), len(want))
				}
				if got, want := view.Subgraph(id).Nodes, ov.Subgraph(id).Nodes; !reflect.DeepEqual(got, want) {
					t.Fatalf("subgraph(%d): view %d ids, overlay %d", id, len(got), len(want))
				}
			}
		})
	}
}

// TestPublishViewConcurrentReaders hammers retained views from many
// goroutines while the writer keeps mutating — the race detector turns
// this into the proof that publish really severs reader/writer sharing.
func TestPublishViewConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomDAG(t, 4000, 2, 9)
	done := make(chan struct{})
	for e := 0; e < 6; e++ {
		view := g.PublishView()
		probes := probeIDs(view, rand.New(rand.NewSource(int64(e))), 8)
		for r := 0; r < 2; r++ {
			go func(v *Graph, ids []NodeID) {
				for _, id := range ids {
					v.Ancestors(id)
					v.Descendants(id)
					v.Node(id)
					v.ComputeStats()
				}
				done <- struct{}{}
			}(view, probes)
		}
		mutateSome(g, rng, 300)
	}
	for i := 0; i < 12; i++ {
		<-done
	}
}
