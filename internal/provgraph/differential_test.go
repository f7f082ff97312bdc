package provgraph_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// TestKernelsMatchReference is the byte-identity gate of the O(answer)
// query kernels: subgraph node order, deletion removal order, the
// Definition 4.1 node list and every observable of a ZoomOut/ZoomIn round
// trip (record, stats, NumNodes, Changes, DOT, provenance expressions)
// must equal the reference kernels the rewrite replaced
// (reference_test.go), and the ZoomIn must restore the view taken before
// the zoom. It runs over the dealership, Arctic and
// graphmem-synthetic workloads, a base with dead nodes and spilled edges,
// a live graph's published view, and a base padded with flat orphans, on
// *Graph (reads only: zooms go through overlays) and on overlays — fresh,
// dirtied by an applied delete, left zoomed out, after a round trip, and
// in the states that must keep the sweep from hiding a flat orphan
// unchecked. The *Graph views take the concrete BFS loop and the overlays
// the generic one, so Ancestors, Descendants and Subgraph hold both to
// the reference.
func TestKernelsMatchReference(t *testing.T) {
	for _, b := range diffBases(t) {
		t.Run(b.name, func(t *testing.T) {
			for _, vw := range diffViews(b) {
				checkReads(t, vw.name, vw.v, b.samples)
				checkZooms(t, vw.name, vw, b)
			}
		})
	}
}

type diffBase struct {
	name    string
	g       *provgraph.Graph
	modules []string
	samples []provgraph.NodeID
	// preps are overlay views only this base can build.
	preps []overlayPrep
}

// overlayPrep names a way to dirty a fresh overlay before the checks.
type overlayPrep struct {
	name string
	prep func(*provgraph.Overlay)
}

func diffBases(t *testing.T) []diffBase {
	t.Helper()
	deal, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 160, NumExec: 4, Seed: 11, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	arctic, err := workflowgen.NewArcticRun(workflowgen.ArcticParams{
		Stations: 5, Topology: workflowgen.Dense, FanOut: 2, NumExec: 2,
		Seed: 11, Gran: workflow.Fine, HistoryYears: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := arctic.ExecuteAll(); err != nil {
		t.Fatal(err)
	}
	synth, _ := workflowgen.SyntheticGraph(4000, 7)

	// A base that is not pristine: frozen to CSR (so in-place edges
	// spill), with an applied deletion and a module left zoomed out.
	dirty := provgraph.FromFrozen(provgraph.Freeze(deal.Runner.Graph()), nil)
	provgraph.RefDelete(dirty, workflowgen.HighFanoutNodes(dirty, 3)[2])
	dirtyZoom := provgraph.RefZoomOut(dirty, "M_dealer2")
	// A flat orphan (a constant without in-edges) whose one out-neighbor
	// the zoom hid. An overlay that zooms back in holds that base-dead
	// slot live, so the constant is no orphan of the view: its sweeps must
	// check every candidate.
	c := dirty.AddNode(provgraph.Node{Class: provgraph.ClassV, Type: provgraph.TypeValue, Op: provgraph.OpConst})
	dirty.AddEdge(c, provgraph.ZoomHidden(dirtyZoom)[0])

	// A live graph's published view: no CSR base, adjacency in chunked
	// tails, with dead nodes, and a writer that mutates after the publish.
	live := deal.Runner.Graph().Clone()
	provgraph.RefDelete(live, workflowgen.HighFanoutNodes(live, 2)[1])
	published := live.PublishView()
	provgraph.RefDelete(live, workflowgen.HighFanoutNodes(live, 1)[0])

	orphans, checked := orphanBase()

	var out []diffBase
	for _, b := range []struct {
		name  string
		g     *provgraph.Graph
		preps []overlayPrep
	}{
		{"dealership", deal.Runner.Graph(), nil},
		{"arctic", arctic.Runner.Graph(), nil},
		{"graphmem", synth, nil},
		{"dirty-base", dirty, []overlayPrep{
			{"overlay-revived", func(ov *provgraph.Overlay) { ov.ZoomIn(dirtyZoom) }},
		}},
		{"published", published, nil},
		{"orphans", orphans, []overlayPrep{
			{"overlay-edged", func(ov *provgraph.Overlay) {
				// A flat orphan with an appended out-edge to a live node,
				// in a word of flat orphans at a page boundary; a checked
				// candidate with an appended edge to the next flat orphan
				// of its word; and a flat orphan the view holds dead.
				ov.AddEdge(4095, 4094)
				ov.AddEdge(checked, checked+1)
				ov.Delete(64)
			}},
		}},
	} {
		out = append(out, diffBase{name: b.name, g: b.g, modules: diffModules(b.g), samples: diffSamples(b.g), preps: b.preps})
	}
	return out
}

// orphanBase builds two chained modules, A and B, padded to 8,300 slots
// in which a quarter are flat orphans: base tuples and constants without
// edges, at ids 8k-1 and 8k, so pairs straddle every word and page
// boundary (63/64, 4095/4096). A's constant feeds A's join, so zooming A
// out orphans it: a candidate the sweep must check, in word 0 beside
// flat orphans. It returns the graph and the constant, whose id + 1 is a
// flat orphan.
func orphanBase() (*provgraph.Graph, provgraph.NodeID) {
	b := provgraph.NewBuilder()
	g := b.G
	invA := b.BeginInvocation("A", "a", 0)
	join := b.Join(b.ModuleInput(invA, b.WorkflowInput("I")), b.StateTuple(invA, b.BaseTuple("s")))
	outA := b.ModuleOutput(invA, join)
	invB := b.BeginInvocation("B", "b", 0)
	b.ModuleOutput(invB, b.Project(b.ModuleInput(invB, outA)))
	for g.TotalNodes()%8 != 6 {
		g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpPlus})
	}
	c := b.ConstNode(nested.Int(7))
	b.AddEdge(c, join)
	for id := g.TotalNodes(); id < 8300; id++ {
		switch id % 8 {
		case 7:
			g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeBaseTuple, Label: fmt.Sprint("t", id)})
		case 0:
			g.AddNode(provgraph.Node{Class: provgraph.ClassV, Type: provgraph.TypeValue, Op: provgraph.OpConst, Value: nested.Int(int64(id))})
		default:
			g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpPlus})
		}
	}
	return g, c
}

// diffModules lists up to five module names in first-invocation order.
func diffModules(g *provgraph.Graph) []string {
	var mods []string
	g.Invocations(func(inv *provgraph.Invocation) bool {
		if !slices.Contains(mods, inv.Module) {
			mods = append(mods, inv.Module)
		}
		return len(mods) < 5
	})
	return mods
}

// diffSamples picks query roots: the highest-fan-out nodes, a stride
// sample of the id space, and a dead slot when there is one.
func diffSamples(g *provgraph.Graph) []provgraph.NodeID {
	ids := workflowgen.HighFanoutNodes(g, 4)
	stride := max(g.TotalNodes()/24, 1)
	for id := 0; id < g.TotalNodes(); id += stride {
		ids = append(ids, provgraph.NodeID(id))
	}
	if dead := g.DeadNodes(); len(dead) > 0 {
		ids = append(ids, dead[len(dead)/2])
	}
	return ids
}

type diffView struct {
	name string
	v    provgraph.GraphView
	// fork returns an independent copy of an overlay view to apply a zoom
	// to; nil for the graph, which zooms only through overlays.
	fork func() provgraph.GraphView
}

func diffViews(b diffBase) []diffView {
	overlay := func(prep func(*provgraph.Overlay)) func() provgraph.GraphView {
		return func() provgraph.GraphView {
			ov := provgraph.NewOverlay(b.g)
			prep(ov)
			return ov
		}
	}
	deleted := overlay(func(ov *provgraph.Overlay) {
		ov.Delete(b.samples[1])
		ov.RecomputeAggregates()
	})
	zoomed := overlay(func(ov *provgraph.Overlay) { ov.ZoomOut(b.modules[0]) })
	roundTrip := overlay(func(ov *provgraph.Overlay) { ov.ZoomIn(ov.ZoomOut(b.modules[len(b.modules)-1])) })
	views := []diffView{
		{"graph", b.g, nil},
		{"overlay", provgraph.NewOverlay(b.g), overlay(func(*provgraph.Overlay) {})},
		{"overlay-deleted", deleted(), deleted},
		{"overlay-zoomed", zoomed(), zoomed},
		{"overlay-roundtrip", roundTrip(), roundTrip},
	}
	for _, p := range b.preps {
		fork := overlay(p.prep)
		views = append(views, diffView{p.name, fork(), fork})
	}
	return views
}

func checkReads(t *testing.T, name string, v provgraph.GraphView, samples []provgraph.NodeID) {
	t.Helper()
	for _, id := range samples {
		sameIDs(t, fmt.Sprintf("%s: Ancestors(%d)", name, id), v.Ancestors(id), provgraph.RefAncestors(v, id))
		sameIDs(t, fmt.Sprintf("%s: Descendants(%d)", name, id), v.Descendants(id), provgraph.RefDescendants(v, id))
		sameIDs(t, fmt.Sprintf("%s: Subgraph(%d)", name, id), v.Subgraph(id).Nodes, provgraph.RefSubgraph(v, id))
		want := provgraph.RefPropagateDeletion(v, id)
		sameIDs(t, fmt.Sprintf("%s: PropagateDeletion(%d)", name, id), v.PropagateDeletion(id).Removed, want)
		for _, a := range samples[:4] {
			if got := v.DependsOn(a, id); got != slices.Contains(want, a) {
				t.Errorf("%s: DependsOn(%d, %d) = %v, reference %v", name, a, id, got, !got)
			}
		}
	}
	multi := []provgraph.NodeID{samples[0], samples[len(samples)/2], samples[0], samples[len(samples)-1]}
	sameIDs(t, fmt.Sprintf("%s: PropagateDeletion(%v)", name, multi),
		v.PropagateDeletion(multi...).Removed, provgraph.RefPropagateDeletion(v, multi...))
}

func checkZooms(t *testing.T, name string, vw diffView, b diffBase) {
	t.Helper()
	zooms := [][]string{b.modules, {b.modules[0], b.modules[0]}}
	for _, m := range b.modules {
		zooms = append(zooms, []string{m})
	}
	for _, mods := range zooms {
		set := map[string]bool{}
		for _, m := range mods {
			set[m] = true
		}
		what := fmt.Sprintf("%s: zoom %v", name, mods)
		sameIDs(t, what+" IntermediateNodes", intermediates(vw.v, set), provgraph.RefIntermediateNodes(vw.v, set))
		if _, ok := vw.v.(*provgraph.Overlay); !ok {
			continue
		}

		got, want, before := vw.fork().(*provgraph.Overlay), vw.fork(), vw.fork()
		gotRec, wantRec := zoomOut(got, mods), provgraph.RefZoomOut(want, mods...)
		if !slices.Equal(gotRec.Modules, wantRec.Modules) || gotRec.HiddenCount() != wantRec.HiddenCount() {
			t.Errorf("%s: record %v/%d, reference %v/%d", what, gotRec.Modules, gotRec.HiddenCount(), wantRec.Modules, wantRec.HiddenCount())
		}
		sameIDs(t, what+" hidden", provgraph.ZoomHidden(gotRec), provgraph.ZoomHidden(wantRec))
		byName := vw.fork().(*provgraph.Overlay).ZoomOut(mods...)
		sameIDs(t, what+" hidden by name", provgraph.ZoomHidden(byName), provgraph.ZoomHidden(wantRec))
		sameIDs(t, what+" ZoomNodes", gotRec.ZoomNodes(), wantRec.ZoomNodes())
		sameView(t, what, got, want, b.samples)

		// ZoomIn must restore the view as it was before the zoom, delta
		// count included: an overlay rolls its newest zoom back.
		got.ZoomIn(gotRec)
		sameView(t, what+" then ZoomIn", got, before, b.samples)
		// The override bits are restored too: zooming out again hides
		// what the first zoom hid.
		sameIDs(t, what+" then ZoomIn, ZoomOut hidden", provgraph.ZoomHidden(zoomOut(got, mods)), provgraph.ZoomHidden(wantRec))
	}
}

// zoomOut zooms an overlay the way core.Session and serve do: with the
// invocations resolved by the caller, here in reverse module order and
// duplicated when a module is.
func zoomOut(ov *provgraph.Overlay, mods []string) *provgraph.ZoomRecord {
	var invs []provgraph.InvID
	for _, m := range slices.Backward(mods) {
		invs = append(invs, ov.InvocationsOf(m)...)
	}
	return ov.ZoomOutInvocations(mods, invs)
}

// intermediates answers Definition 4.1, which GraphView does not carry.
func intermediates(v provgraph.GraphView, set map[string]bool) []provgraph.NodeID {
	return v.(interface {
		IntermediateNodes(modules map[string]bool) []provgraph.NodeID
	}).IntermediateNodes(set)
}

func sameView(t *testing.T, what string, got, want provgraph.GraphView, samples []provgraph.NodeID) {
	t.Helper()
	if gs, ws := got.ComputeStats(), want.ComputeStats(); !reflect.DeepEqual(gs, ws) {
		t.Errorf("%s: stats %+v, reference %+v", what, gs, ws)
	}
	if g, w := got.NumNodes(), want.NumNodes(); g != w {
		t.Errorf("%s: NumNodes() = %d, reference %d", what, g, w)
	}
	if gc, ok := got.(interface{ Changes() int }); ok {
		if g, w := gc.Changes(), want.(interface{ Changes() int }).Changes(); g != w {
			t.Errorf("%s: Changes() = %d, reference %d", what, g, w)
		}
	}
	if g, w := dot(got), dot(want); g != w {
		t.Errorf("%s: DOT output differs", what)
	}
	for _, id := range samples {
		if !want.Alive(id) {
			continue
		}
		if g, w := got.Expr(id).String(), want.Expr(id).String(); g != w {
			t.Errorf("%s: Expr(%d) = %q, reference %q", what, id, g, w)
		}
	}
}

func dot(v provgraph.GraphView) string {
	var sb strings.Builder
	_ = v.WriteDOT(&sb, "diff")
	return sb.String()
}

// sameIDs asserts element-for-element equality, nil-ness included (a nil
// and an empty slice encode differently in JSON).
func sameIDs(t *testing.T, what string, got, want []provgraph.NodeID) {
	t.Helper()
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Errorf("%s: got %d ids %v, reference %d ids %v", what, len(got), head(got), len(want), head(want))
	}
}

func head(ids []provgraph.NodeID) []provgraph.NodeID { return ids[:min(len(ids), 12)] }
