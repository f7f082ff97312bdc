package provgraph

import (
	"fmt"
	"testing"

	"lipstick/internal/nested"
)

// cloneBaseline applies the same mutation to a deep clone — the
// equivalence baseline the overlay must match query-for-query. The
// mutations are the reference kernels: refZoomOutOf and RefDelete.
func cloneBaseline(g *Graph, mutate func(c *Graph)) *Graph {
	c := g.Clone()
	mutate(c)
	return c
}

// assertViewsMatch checks the overlay view against a mutated clone on
// every query surface a session exposes.
func assertViewsMatch(t *testing.T, ov *Overlay, want *Graph) {
	t.Helper()
	if !ViewsStructurallyEqual(ov, want) {
		t.Fatalf("overlay view differs structurally from clone baseline:\noverlay:\n%s\nclone:\n%s",
			ov.DOT("overlay"), want.DOT("clone"))
	}
	if got, want := ov.DOT("t"), want.DOT("t"); got != want {
		t.Errorf("DOT differs:\noverlay:\n%s\nclone:\n%s", got, want)
	}
	os, ws := ov.ComputeStats(), want.ComputeStats()
	if os.Nodes != ws.Nodes || os.Edges != ws.Edges || os.PNodes != ws.PNodes || os.VNodes != ws.VNodes {
		t.Errorf("stats differ: overlay %+v, clone %+v", os, ws)
	}
	if ov.NumNodes() != want.NumNodes() || ov.TotalNodes() != want.TotalNodes() || ov.NumEdges() != want.NumEdges() {
		t.Errorf("counts differ: overlay (%d,%d,%d), clone (%d,%d,%d)",
			ov.NumNodes(), ov.TotalNodes(), ov.NumEdges(),
			want.NumNodes(), want.TotalNodes(), want.NumEdges())
	}
	for id := 0; id < want.TotalNodes(); id++ {
		nid := NodeID(id)
		if ov.Alive(nid) != want.Alive(nid) {
			t.Fatalf("alive(%d): overlay %v, clone %v", id, ov.Alive(nid), want.Alive(nid))
		}
		if !ov.Alive(nid) {
			continue
		}
		if got, want := ov.Expr(nid).String(), want.Expr(nid).String(); got != want {
			t.Errorf("expr(%d): overlay %q, clone %q", id, got, want)
		}
		gotSub, wantSub := ov.Subgraph(nid), want.Subgraph(nid)
		if fmt.Sprint(gotSub.Nodes) != fmt.Sprint(wantSub.Nodes) {
			t.Errorf("subgraph(%d): overlay %v, clone %v", id, gotSub.Nodes, wantSub.Nodes)
		}
		if fmt.Sprint(ov.Ancestors(nid)) != fmt.Sprint(want.Ancestors(nid)) {
			t.Errorf("ancestors(%d) differ", id)
		}
		gotDel, wantDel := ov.PropagateDeletion(nid), want.PropagateDeletion(nid)
		if fmt.Sprint(gotDel.Removed) != fmt.Sprint(wantDel.Removed) {
			t.Errorf("propagate(%d): overlay %v, clone %v", id, gotDel.Removed, wantDel.Removed)
		}
	}
}

// snapshotDOT freezes a graph's rendered state so mutations through an
// overlay can be shown not to leak into the base.
func snapshotDOT(g *Graph) string { return g.DOT("base") }

func TestOverlayZoomEqualsCloneBaseline(t *testing.T) {
	f := buildDealershipFixture()
	before := snapshotDOT(f.g)

	ov := NewOverlay(f.g)
	ov.ZoomOut("M_dealer1")
	want := cloneBaseline(f.g, func(c *Graph) { refZoomOutOf(c, "M_dealer1") })
	assertViewsMatch(t, ov, want)

	if got := snapshotDOT(f.g); got != before {
		t.Fatal("ZoomOut through the overlay mutated the base graph")
	}
	if !ov.IsAcyclic() {
		t.Error("overlay view is cyclic after zoom")
	}
}

func TestOverlayMultiModuleZoomAndZoomIn(t *testing.T) {
	f := buildDealershipFixture()
	before := snapshotDOT(f.g)

	ov := NewOverlay(f.g)
	rec := ov.ZoomOut("M_dealer1", "M_agg")
	want := cloneBaseline(f.g, func(c *Graph) { refZoomOutOf(c, "M_dealer1", "M_agg") })
	assertViewsMatch(t, ov, want)

	// ZoomIn through the overlay restores the base's live view exactly.
	ov.ZoomIn(rec)
	if !ViewsStructurallyEqual(ov, f.g) {
		t.Fatalf("ZoomIn did not restore the base view:\n%s", ov.DOT("overlay"))
	}
	if got := snapshotDOT(f.g); got != before {
		t.Fatal("zoom round-trip through the overlay mutated the base graph")
	}
}

func TestOverlayDeleteEqualsCloneBaseline(t *testing.T) {
	f := buildDealershipFixture()
	before := snapshotDOT(f.g)

	ov := NewOverlay(f.g)
	res := ov.Delete(f.n01)
	recs := ov.RecomputeAggregates()

	var wantRemoved []NodeID
	want := cloneBaseline(f.g, func(c *Graph) {
		wantRemoved = RefDelete(c, f.n01)
		// Example 4.3: deleting C2 leaves COUNT one contribution.
		c.setValue(f.n70, nested.Int(1))
	})
	if fmt.Sprint(res.Removed) != fmt.Sprint(wantRemoved) {
		t.Fatalf("delete removed %v, clone removed %v", res.Removed, wantRemoved)
	}
	if len(recs) != 1 || recs[0].Node != f.n70 || !recs[0].After.Equal(nested.Int(1)) {
		t.Fatalf("recomputed %+v, want only COUNT %d -> 1", recs, f.n70)
	}
	assertViewsMatch(t, ov, want)

	// The value override is visible through the view but not in the base.
	if len(recs) > 0 {
		id := recs[0].Node
		if ov.Node(id).Value.Equal(f.g.Node(id).Value) {
			t.Error("overlay value override not applied")
		}
	}
	if got := snapshotDOT(f.g); got != before {
		t.Fatal("Delete through the overlay mutated the base graph")
	}
}

func TestOverlayZoomThenDeleteComposition(t *testing.T) {
	f := buildDealershipFixture()
	before := snapshotDOT(f.g)

	ov := NewOverlay(f.g)
	ov.ZoomOut("M_dealer2")
	ov.Delete(f.n00) // the workflow input: removes almost everything
	want := cloneBaseline(f.g, func(c *Graph) {
		refZoomOutOf(c, "M_dealer2")
		RefDelete(c, f.n00)
	})
	assertViewsMatch(t, ov, want)
	if got := snapshotDOT(f.g); got != before {
		t.Fatal("composed transformations leaked into the base graph")
	}
}

func TestOverlayBookkeeping(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	if ov.Changes() != 0 {
		t.Fatalf("fresh overlay has %d changes", ov.Changes())
	}
	if ov.NumNodes() != f.g.NumNodes() || ov.TotalNodes() != f.g.TotalNodes() || ov.NumEdges() != f.g.NumEdges() {
		t.Fatal("fresh overlay counts differ from base")
	}
	if ov.Base() != f.g {
		t.Fatal("Base() does not return the base graph")
	}

	rec := ov.ZoomOut("M_dealer1")
	if ov.Changes() == 0 {
		t.Fatal("zoom recorded no changes")
	}
	// The session cost is O(changes): bounded by hidden + zoom nodes +
	// wiring, far below the graph's node count for a one-module zoom.
	if max := 2*(rec.HiddenCount()+len(rec.ZoomNodes())) + 3*ov.NumInvocations(); ov.Changes() > max {
		t.Errorf("changes = %d, want <= %d (O(zoom work))", ov.Changes(), max)
	}

	// Double-kill and double-revive are idempotent.
	n := rec.ZoomNodes()[0]
	live := ov.NumNodes()
	ov.kill(n)
	ov.kill(n)
	if ov.NumNodes() != live-1 {
		t.Errorf("NumNodes after kill = %d, want %d", ov.NumNodes(), live-1)
	}
	ov.revive(n)
	ov.revive(n)
	if ov.NumNodes() != live {
		t.Errorf("NumNodes after revive = %d, want %d", ov.NumNodes(), live)
	}
}

func TestOverlayMaterializeEqualsView(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	ov.ZoomOut("M_dealer1")
	ov.Delete(f.n02)
	ov.RecomputeAggregates()

	m := ov.Materialize()
	if !ViewsStructurallyEqual(ov, m) {
		t.Fatalf("materialized graph differs from the overlay view:\noverlay:\n%s\nmaterialized:\n%s",
			ov.DOT("overlay"), m.DOT("materialized"))
	}
	// Adjacency order is observable (DOT edge order, Expr child order);
	// Materialize must replay the overlay's edge insertions exactly.
	if got, want := m.DOT("t"), ov.DOT("t"); got != want {
		t.Errorf("materialized DOT differs (edge order?):\n%s\nvs overlay:\n%s", got, want)
	}
	for id := 0; id < ov.TotalNodes(); id++ {
		nid := NodeID(id)
		if !ov.Alive(nid) {
			continue
		}
		if !ov.Node(nid).Value.Equal(m.Node(nid).Value) {
			t.Errorf("value(%d): overlay %v, materialized %v", id, ov.Node(nid).Value, m.Node(nid).Value)
		}
		if got, want := m.Expr(nid).String(), ov.Expr(nid).String(); got != want {
			t.Errorf("expr(%d): materialized %q, overlay %q", id, got, want)
		}
	}
}
