package provgraph_test

import (
	"fmt"
	"slices"
	"testing"

	"lipstick/internal/provgraph"
)

// TestZoomMemoMatchesKernel: a zoom answered from the base's zoom memo
// equals the Definition 4.1 kernel run cold on a fresh overlay, on every
// differential base — hidden ids in order, zoom nodes, counts, stats,
// DOT and sampled provenance — before and after the ZoomIn.
func TestZoomMemoMatchesKernel(t *testing.T) {
	for _, b := range diffBases(t) {
		t.Run(b.name, func(t *testing.T) {
			sets := [][]string{b.modules}
			for _, m := range b.modules {
				sets = append(sets, []string{m})
			}
			for _, mods := range sets {
				invs := sortedInvs(b.g, mods)
				provgraph.NewOverlay(b.g).ZoomOutInvocations(mods, invs) // fill the memo
				if !provgraph.ZoomMemoized(b.g, invs) {
					t.Fatalf("zoom %v: no plan memoized", mods)
				}
				hit, cold := provgraph.NewOverlay(b.g), provgraph.NewOverlay(b.g)
				checkMemoZoom(t, fmt.Sprintf("zoom %v", mods), hit, hit.ZoomOutInvocations(mods, invs),
					cold, provgraph.ColdZoomOut(cold, mods, invs), b.samples)
			}
		})
	}
}

// TestZoomMemoInvalidation: the memo is stamped with the graph's
// version, so a live graph that ingests events after a plan was memoized
// never answers from the stale plan.
func TestZoomMemoInvalidation(t *testing.T) {
	bases := diffBases(t)
	b := bases[0]
	mods := b.modules[:1]
	invs := sortedInvs(b.g, mods)

	// A live graph ingests a new state tuple for an invocation of the
	// zoomed module: the invocation set is unchanged, the zoom's answer
	// is not.
	live := b.g.Clone()
	provgraph.NewOverlay(live).ZoomOutInvocations(mods, invs)
	inv := live.Invocation(invs[0])
	base := live.TotalNodes()
	for _, ev := range []provgraph.Event{
		{Kind: provgraph.EvAddNode, Node: provgraph.Node{ID: provgraph.NodeID(base), Class: provgraph.ClassP, Type: provgraph.TypeBaseTuple, Label: "late", Inv: -1}},
		{Kind: provgraph.EvAddNode, Node: provgraph.Node{ID: provgraph.NodeID(base + 1), Class: provgraph.ClassP, Type: provgraph.TypeState, Op: provgraph.OpTimes, Inv: inv.ID}},
		{Kind: provgraph.EvAddEdge, Src: provgraph.NodeID(base), Dst: provgraph.NodeID(base + 1)},
		{Kind: provgraph.EvAddEdge, Src: inv.MNode, Dst: provgraph.NodeID(base + 1)},
		{Kind: provgraph.EvAnchor, Inv: inv.ID, Anchor: provgraph.AnchorState, Src: provgraph.NodeID(base + 1)},
	} {
		if err := provgraph.Apply(live, &ev); err != nil {
			t.Fatal(err)
		}
	}
	if provgraph.ZoomMemoized(live, invs) {
		t.Fatal("live graph ingested: the stale plan is still served")
	}
	hit, cold := provgraph.NewOverlay(live), provgraph.NewOverlay(live)
	rec := hit.ZoomOutInvocations(mods, invs)
	if !slices.Contains(provgraph.ZoomHidden(rec), provgraph.NodeID(base+1)) {
		t.Error("after ingest: the zoom does not hide the new state node")
	}
	checkMemoZoom(t, "after ingest", hit, rec, cold, provgraph.ColdZoomOut(cold, mods, invs), b.samples)
}

func checkMemoZoom(t *testing.T, what string, hit *provgraph.Overlay, hitRec *provgraph.ZoomRecord,
	cold *provgraph.Overlay, coldRec *provgraph.ZoomRecord, samples []provgraph.NodeID) {
	t.Helper()
	sameIDs(t, what+": hidden", provgraph.ZoomHidden(hitRec), provgraph.ZoomHidden(coldRec))
	sameIDs(t, what+": ZoomNodes", hitRec.ZoomNodes(), coldRec.ZoomNodes())
	if hitRec.HiddenCount() != coldRec.HiddenCount() || hitRec.ZoomNodeCount() != coldRec.ZoomNodeCount() {
		t.Errorf("%s: record counts %d/%d, cold %d/%d", what,
			hitRec.HiddenCount(), hitRec.ZoomNodeCount(), coldRec.HiddenCount(), coldRec.ZoomNodeCount())
	}
	sameView(t, what, hit, cold, samples)
	before := provgraph.NewOverlay(hit.Base())
	hit.ZoomIn(hitRec)
	sameView(t, what+" then ZoomIn", hit, before, samples)
}

// sortedInvs resolves the modules' invocations in ascending order.
func sortedInvs(g *provgraph.Graph, mods []string) []provgraph.InvID {
	var invs []provgraph.InvID
	for _, m := range mods {
		invs = append(invs, g.InvocationsOf(m)...)
	}
	slices.Sort(invs)
	return slices.Compact(invs)
}
