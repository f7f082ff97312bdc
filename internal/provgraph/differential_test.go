package provgraph_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// TestKernelsMatchReference is the byte-identity gate of the O(answer)
// query kernels: subgraph node order, deletion removal order, the
// Definition 4.1 node list and every observable of a ZoomOut/ZoomIn round
// trip (record, stats, Changes, DOT, provenance expressions) must equal
// the reference kernels the rewrite replaced (reference_test.go). It runs
// over the dealership, Arctic and graphmem-synthetic workloads, a base
// with dead nodes and spilled edges, on *Graph and on overlays — fresh,
// dirtied by an applied delete, left zoomed out, and after a round trip —
// with the parallel BFS frontier forced on and off.
func TestKernelsMatchReference(t *testing.T) {
	for _, b := range diffBases(t) {
		t.Run(b.name, func(t *testing.T) {
			for _, threshold := range []int{0, 1} {
				old := provgraph.SetParallelFrontierThreshold(threshold)
				for _, vw := range diffViews(b) {
					checkReads(t, fmt.Sprintf("%s/t%d", vw.name, threshold), vw.v, b.samples)
					checkZooms(t, fmt.Sprintf("%s/t%d", vw.name, threshold), vw, b)
				}
				provgraph.SetParallelFrontierThreshold(old)
			}
		})
	}
}

type diffBase struct {
	name    string
	g       *provgraph.Graph
	modules []string
	samples []provgraph.NodeID
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
	dirty.Delete(workflowgen.HighFanoutNodes(dirty, 3)[2])
	dirty.ZoomOut("M_dealer2")

	var out []diffBase
	for _, b := range []struct {
		name string
		g    *provgraph.Graph
	}{
		{"dealership", deal.Runner.Graph()},
		{"arctic", arctic.Runner.Graph()},
		{"graphmem", synth},
		{"dirty-base", dirty},
	} {
		out = append(out, diffBase{name: b.name, g: b.g, modules: diffModules(b.g), samples: diffSamples(b.g)})
	}
	return out
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
	// fork returns an independent copy to apply a zoom to.
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
	return []diffView{
		{"graph", b.g, func() provgraph.GraphView { return b.g.Clone() }},
		{"overlay", provgraph.NewOverlay(b.g), overlay(func(*provgraph.Overlay) {})},
		{"overlay-deleted", deleted(), deleted},
		{"overlay-zoomed", zoomed(), zoomed},
		{"overlay-roundtrip", roundTrip(), roundTrip},
	}
}

func checkReads(t *testing.T, name string, v provgraph.GraphView, samples []provgraph.NodeID) {
	t.Helper()
	for _, id := range samples {
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

		got, want := vw.fork(), vw.fork()
		gotRec, wantRec := zoomOut(got, mods), provgraph.RefZoomOut(want, mods...)
		if !slices.Equal(gotRec.Modules, wantRec.Modules) || gotRec.HiddenCount() != wantRec.HiddenCount() {
			t.Errorf("%s: record %v/%d, reference %v/%d", what, gotRec.Modules, gotRec.HiddenCount(), wantRec.Modules, wantRec.HiddenCount())
		}
		sameIDs(t, what+" hidden", provgraph.ZoomHidden(gotRec), provgraph.ZoomHidden(wantRec))
		if _, ok := vw.v.(*provgraph.Overlay); ok {
			byName := vw.fork().(zoomer).ZoomOut(mods...)
			sameIDs(t, what+" hidden by name", provgraph.ZoomHidden(byName), provgraph.ZoomHidden(wantRec))
		}
		sameIDs(t, what+" ZoomNodes", gotRec.ZoomNodes(), wantRec.ZoomNodes())
		sameView(t, what, got, want, b.samples)

		zoomIn(got, gotRec)
		zoomIn(want, wantRec)
		sameView(t, what+" then ZoomIn", got, want, b.samples)
	}
}

// The GraphView interface carries no mutations; *Graph and *Overlay both
// have them.
type zoomer interface {
	ZoomOut(modules ...string) *provgraph.ZoomRecord
	ZoomIn(rec *provgraph.ZoomRecord)
	IntermediateNodes(modules map[string]bool) []provgraph.NodeID
}

// zoomOut zooms overlays the way core.Session and serve do: with the
// invocations resolved by the caller, here in reverse module order and
// duplicated when a module is.
func zoomOut(v provgraph.GraphView, mods []string) *provgraph.ZoomRecord {
	ov, ok := v.(*provgraph.Overlay)
	if !ok {
		return v.(zoomer).ZoomOut(mods...)
	}
	var invs []provgraph.InvID
	for _, m := range slices.Backward(mods) {
		invs = append(invs, ov.InvocationsOf(m)...)
	}
	return ov.ZoomOutInvocations(mods, invs)
}

func zoomIn(v provgraph.GraphView, rec *provgraph.ZoomRecord) { v.(zoomer).ZoomIn(rec) }

func intermediates(v provgraph.GraphView, set map[string]bool) []provgraph.NodeID {
	return v.(zoomer).IntermediateNodes(set)
}

func sameView(t *testing.T, what string, got, want provgraph.GraphView, samples []provgraph.NodeID) {
	t.Helper()
	if gs, ws := got.ComputeStats(), want.ComputeStats(); !reflect.DeepEqual(gs, ws) {
		t.Errorf("%s: stats %+v, reference %+v", what, gs, ws)
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
