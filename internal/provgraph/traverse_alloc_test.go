package provgraph

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"lipstick/internal/nested"
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

// orphanModuleGraph is moduleGraph with a quarter of its filler slots
// isolated base tuples and constants: the pre-existing orphans that every
// ZoomOut of a view hides. They sit at ids 8k-1 and 8k, so pairs of them
// straddle every word and page boundary.
func orphanModuleGraph(n int) *Graph {
	g, _ := moduleGraph(0)
	for id := g.TotalNodes(); id < n; id++ {
		switch id % 8 {
		case 7:
			g.AddNode(Node{Class: ClassP, Type: TypeBaseTuple, Label: "t" + strconv.Itoa(id)})
		case 0:
			g.AddNode(Node{Class: ClassV, Type: TypeValue, Op: OpConst, Value: nested.Int(int64(id))})
		default:
			g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
		}
	}
	return g
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

// fanGraph builds n slots: a source feeding n-2 middle nodes that all
// feed one sink. Descendants(source) and Ancestors(sink) hold the whole
// graph, in one frontier n-2 nodes wide.
func fanGraph(n int) (g *Graph, src, sink NodeID) {
	g = New()
	src = g.AddNode(Node{Class: ClassP, Type: TypeWorkflowInput, Label: "x"})
	mids := make([]NodeID, n-2)
	for i := range mids {
		mids[i] = g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpTimes})
		g.AddEdge(src, mids[i])
	}
	sink = g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
	for _, m := range mids {
		g.AddEdge(m, sink)
	}
	return g, src, sink
}

// warmAllocsPerRun is testing.AllocsPerRun after three warm-up runs on
// the one P it measures on, with the collector off. Query scratch comes
// from a sync.Pool, which caches per P and is emptied by a GC; Subgraph
// takes two scratches whose roles swap from call to call. Warmed on
// another P, or emptied mid-measurement, the pool would hand out scratch
// that has not grown to the query yet, and the measurement would charge
// that growth to the query.
func warmAllocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 3 {
		f()
	}
	return testing.AllocsPerRun(runs, f)
}

// TestGraphTraversalAllocs pins the BFS to its answer: Ancestors and
// Descendants allocate the result slice, Subgraph the result and its
// node list, and nothing else — on 4k- and 64k-slot graphs, built and
// reloaded from their frozen form, with answers spanning the graph, read
// as the graph itself, through a fresh overlay, and through an overlay
// with an applied delete (liveness pages).
func TestGraphTraversalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the allocation profile is not representative")
	}
	for _, n := range []int{1 << 12, 1 << 16} {
		built, src, sink := fanGraph(n)
		for _, g := range []*Graph{built, FromFrozen(Freeze(built), nil)} {
			deleted := NewOverlay(g)
			if res := deleted.Delete(src + 1); res.Size() != 1 {
				t.Fatalf("deleting a middle node removed %d nodes, want 1", res.Size())
			}
			for _, v := range []struct {
				name string
				v    GraphView
			}{{"graph", g}, {"overlay", NewOverlay(g)}, {"deleted overlay", deleted}} {
				for _, q := range []struct {
					name string
					run  func()
				}{
					{"Ancestors", func() { v.v.Ancestors(sink) }},
					{"Descendants", func() { v.v.Descendants(src) }},
					{"Subgraph(source)", func() { v.v.Subgraph(src) }},
					{"Subgraph(sink)", func() { v.v.Subgraph(sink) }},
				} {
					if allocs := warmAllocsPerRun(20, q.run); allocs > 2 {
						t.Errorf("%s on the %s at %d slots (CSR base %d): %.1f allocations, want at most 2",
							q.name, v.name, n, g.in.baseN, allocs)
					}
				}
			}
		}
	}
}

// TestExprStringAllocs pins the renderer's allocation to its answer: one
// allocation per render (the result string), and the same bytes on a 40x
// larger graph, through the graph and through an overlay.
func TestExprStringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the allocation profile is not representative")
	}
	smallG, _ := moduleGraph(100)
	bigG, _ := moduleGraph(4000)
	out := smallG.Invocation(0).Outputs[0]
	if want := smallG.Expr(out).String(); len(want) < 2 {
		t.Fatalf("module output renders as %q; the guard needs a non-trivial expression", want)
	}
	for _, v := range []struct {
		name       string
		small, big GraphView
	}{
		{"graph", smallG, bigG},
		{"overlay", NewOverlay(smallG), NewOverlay(bigG)},
	} {
		render := func(g GraphView) func() { return func() { _, _ = g.ExprString(out) } }
		render(v.small)()
		render(v.big)()
		for _, g := range []GraphView{v.small, v.big} {
			if allocs := testing.AllocsPerRun(200, render(g)); allocs != 1 {
				t.Errorf("%s: %.1f allocations per render at %d slots, want 1", v.name, allocs, g.TotalNodes())
			}
		}
		smallBytes, bigBytes := bytesPerRun(1000, render(v.small)), bytesPerRun(1000, render(v.big))
		if bigBytes != smallBytes {
			t.Errorf("%s: %d bytes/render at 4000 slots vs %d at 100 — allocation scales with the graph", v.name, bigBytes, smallBytes)
		}
	}
}

// diamondChain builds depth shared diamonds over the token x0: each x_i
// is x_{i-1}·a_i + x_{i-1}·b_i. The graph has 5·depth+1 nodes, while
// x_depth's printed expression has more than 2^depth leaves.
func diamondChain(depth int) (*Graph, NodeID) {
	g := New()
	x := g.AddNode(Node{Class: ClassP, Type: TypeWorkflowInput, Label: "x0"})
	for i := 1; i <= depth; i++ {
		sum := g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
		for _, side := range []string{"a", "b"} {
			tok := g.AddNode(Node{Class: ClassP, Type: TypeBaseTuple, Label: side + strconv.Itoa(i)})
			prod := g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpTimes})
			g.AddEdge(x, prod)
			g.AddEdge(tok, prod)
			g.AddEdge(prod, sum)
		}
		x = sum
	}
	return g, x
}

// TestExprStringCap renders a node whose expression has ~2^60 leaves: the
// renderer must stop at MaxExprBytes, on a rune boundary, and say so. A
// shallow chain still renders whole and equal to the tree.
func TestExprStringCap(t *testing.T) {
	g, x := diamondChain(12)
	if got, truncated := g.ExprString(x); got != g.Expr(x).String() || truncated {
		t.Fatalf("depth 12: ExprString differs from the tree (truncated %v)", truncated)
	}
	g, x = diamondChain(60)
	for _, v := range []GraphView{g, NewOverlay(g)} {
		got, truncated := v.ExprString(x)
		if !truncated || len(got) > MaxExprBytes || len(got) < MaxExprBytes-utf8.UTFMax || !utf8.ValidString(got) {
			t.Fatalf("depth 60: %d bytes, truncated %v, valid UTF-8 %v; want a whole-rune cut at %d bytes",
				len(got), truncated, utf8.ValidString(got), MaxExprBytes)
		}
		if !strings.HasPrefix(got, "((((((") {
			t.Fatalf("depth 60: rendering starts %q", got[:16])
		}
	}
}

func TestWholeRunes(t *testing.T) {
	dot := "·" // 2 bytes
	delta := "δ("
	for _, c := range []struct{ in, want string }{
		{"a", "a"},
		{"a" + dot, "a" + dot},
		{"a" + dot[:1], "a"},
		{"a" + delta[:1], "a"},
		{"a" + "\xff", "a\xff"},
		{"", ""},
	} {
		if got := string(wholeRunes([]byte(c.in))); got != c.want {
			t.Errorf("wholeRunes(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// BenchmarkOverlayZoomRoundTrip zooms a one-invocation module out and back
// in on a fresh session overlay over a 64k-slot base. Over plain filler
// the cost is the module's, not the graph's; over orphan filler every
// zoom also hides (and ZoomIn revives) the base's 16k flat orphans. Both
// replay the base's memoized plan; cold runs the Definition 4.1 kernel
// that a memo miss runs, over plain filler.
func BenchmarkOverlayZoomRoundTrip(b *testing.B) {
	plain, _ := moduleGraph(1 << 16)
	memo := func(ov *Overlay) *ZoomRecord { return ov.ZoomOut("M") }
	cold := func(ov *Overlay) *ZoomRecord {
		return zoomOutOf(ov, []string{"M"}, modulesInvocations(ov.base, []string{"M"}))
	}
	for _, c := range []struct {
		name string
		g    *Graph
		zoom func(*Overlay) *ZoomRecord
	}{{"plain", plain, memo}, {"orphans", orphanModuleGraph(1 << 16), memo}, {"cold", plain, cold}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ov := NewOverlay(c.g)
				ov.ZoomIn(c.zoom(ov))
			}
		})
	}
}

// BenchmarkWhatIfDelete propagates a leaf's deletion through a session
// overlay over a 64k-slot base: the cost is the cascade's. The overlay is
// fresh, or has made a zoom round trip, which leaves its liveness pages
// behind and no delta.
func BenchmarkWhatIfDelete(b *testing.B) {
	g, leaf := moduleGraph(1 << 16)
	for _, c := range []struct {
		name string
		prep func(*Overlay)
	}{
		{"fresh", func(*Overlay) {}},
		{"after-round-trip", func(ov *Overlay) { ov.ZoomIn(ov.ZoomOut("M")) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ov := NewOverlay(g)
			c.prep(ov)
			b.ReportAllocs()
			for b.Loop() {
				ov.PropagateDeletion(leaf)
			}
		})
	}
}
