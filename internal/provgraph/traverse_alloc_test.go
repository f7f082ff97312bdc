package provgraph

import (
	"runtime"
	"testing"
)

// pairGraph builds n disconnected a -> b pairs, returning the graph and
// the b-node of the first pair. Traversal results from b are tiny (one
// ancestor) no matter how large the graph is, which is exactly the shape
// where per-call O(graph) scratch allocation used to dominate.
func pairGraph(n int) (*Graph, NodeID) {
	g := New()
	var firstB NodeID
	for i := 0; i < n; i++ {
		a := g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
		b := g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
		g.AddEdge(a, b)
		if i == 0 {
			firstB = b
		}
	}
	return g, firstB
}

// moduleGraph builds n node slots: one invocation of module "M" (a
// workflow input through a module input, one internal op and a module
// output) followed by disconnected a -> b pairs as filler. It returns the
// graph and the b-node of the first pair, a leaf. Zooming "M" or deleting
// the leaf touches the same few nodes at any n.
func moduleGraph(n int) (*Graph, NodeID) {
	b := NewBuilder()
	inv := b.BeginInvocation("M", "m", 0)
	in := b.ModuleInput(inv, b.WorkflowInput("I"))
	b.ModuleOutput(inv, b.Project(in))
	g := b.G
	var leaf NodeID = InvalidNode
	for g.TotalNodes() < n {
		a := g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
		l := g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
		g.AddEdge(a, l)
		if leaf == InvalidNode {
			leaf = l
		}
	}
	return g, leaf
}

// bytesPerRun measures average heap bytes allocated per call to f. It
// runs on one P: sync.Pool caches per P, and a goroutine that migrates
// mid-measurement would miss its pooled scratch and allocate a new one.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestTraversalAllocsDoNotScaleWithGraphSize pins the pooled-scratch
// contract behind subgraph/lineage/dependency queries: BFS (Ancestors,
// Subgraph) and deletion propagation (DependsOn) must not allocate
// O(graph) visited/in-degree scratch per call, so a 40x larger graph
// answers a constant-size query with the same allocation profile.
func TestTraversalAllocsDoNotScaleWithGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the allocation profile is not representative")
	}
	small, smallB := pairGraph(100)
	big, bigB := pairGraph(4000)

	queries := []struct {
		name string
		run  func(g *Graph, b NodeID)
	}{
		{"ancestors", func(g *Graph, b NodeID) { g.Ancestors(b) }},
		{"subgraph", func(g *Graph, b NodeID) { g.Subgraph(b) }},
		{"dependsOn", func(g *Graph, b NodeID) { g.DependsOn(b, b-1) }},
	}
	for _, q := range queries {
		// Warm the pools so the first-use growth is not measured.
		q.run(small, smallB)
		q.run(big, bigB)

		smallAllocs := testing.AllocsPerRun(200, func() { q.run(small, smallB) })
		bigAllocs := testing.AllocsPerRun(200, func() { q.run(big, bigB) })
		if bigAllocs > smallAllocs+1 {
			t.Errorf("%s: allocations grew with graph size: %.1f at 200 slots vs %.1f at 8000", q.name, smallAllocs, bigAllocs)
		}

		bigBytes := bytesPerRun(1000, func() { q.run(big, bigB) })
		// The pre-pool implementation allocated >= one byte per node slot
		// per call (visited []bool, indeg []int32); 8000 slots must now
		// cost a small constant.
		if bigBytes > 2048 {
			t.Errorf("%s: %d bytes/op on an 8000-slot graph — scratch is scaling with the graph again", q.name, bigBytes)
		}
	}

	// The session kernels over an overlay: what-if deletion of a leaf
	// (no eager in-degree pass), a zoom round trip of a one-invocation
	// module (one pass over the invocations, no per-slot orphan sweep, no
	// map-backed liveness) and a subgraph (no membership map) must allocate exactly
	// the same bytes on a 40x larger base. Both bases fit one 4096-slot
	// liveness page, so not even the page table differs.
	smallG, smallLeaf := moduleGraph(100)
	bigG, bigLeaf := moduleGraph(4000)
	smallOv, bigOv := NewOverlay(smallG), NewOverlay(bigG)
	overlayQueries := []struct {
		name string
		run  func(g *Graph, ov *Overlay, leaf NodeID)
	}{
		{"overlay what-if delete", func(_ *Graph, ov *Overlay, leaf NodeID) { ov.PropagateDeletion(leaf) }},
		{"overlay zoom round trip", func(g *Graph, _ *Overlay, _ NodeID) {
			ov := NewOverlay(g)
			ov.ZoomIn(ov.ZoomOut("M"))
		}},
		{"overlay subgraph", func(_ *Graph, ov *Overlay, leaf NodeID) { ov.Subgraph(leaf) }},
	}
	for _, q := range overlayQueries {
		q.run(smallG, smallOv, smallLeaf)
		q.run(bigG, bigOv, bigLeaf)
		smallBytes := bytesPerRun(1000, func() { q.run(smallG, smallOv, smallLeaf) })
		bigBytes := bytesPerRun(1000, func() { q.run(bigG, bigOv, bigLeaf) })
		if bigBytes != smallBytes {
			t.Errorf("%s: %d bytes/op at 4000 slots vs %d at 100 — allocation scales with the graph", q.name, bigBytes, smallBytes)
		}
	}
}

// BenchmarkOverlayZoomRoundTrip zooms a one-invocation module out and back
// in on a fresh session overlay over a 64k-slot base: the cost is the
// module's, not the graph's.
func BenchmarkOverlayZoomRoundTrip(b *testing.B) {
	g, _ := moduleGraph(1 << 16)
	b.ReportAllocs()
	for b.Loop() {
		ov := NewOverlay(g)
		ov.ZoomIn(ov.ZoomOut("M"))
	}
}

// BenchmarkWhatIfDelete propagates a leaf's deletion through a session
// overlay over a 64k-slot base: the cost is the cascade's.
func BenchmarkWhatIfDelete(b *testing.B) {
	g, leaf := moduleGraph(1 << 16)
	ov := NewOverlay(g)
	b.ReportAllocs()
	for b.Loop() {
		ov.PropagateDeletion(leaf)
	}
}
