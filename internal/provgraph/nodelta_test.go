package provgraph

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lipstick/internal/nested"
)

// TestNoDeltaTransitions walks an overlay through the states a session
// passes, and through each kind of delta alone: Changes counts what is
// overridden, so a zoom round trip, which leaves its liveness pages
// behind, counts as no delta again.
func TestNoDeltaTransitions(t *testing.T) {
	g, leaf := moduleGraph(1 << 13)
	ov := NewOverlay(g)
	var rec *ZoomRecord
	for _, step := range []struct {
		name string
		do   func()
		want bool
	}{
		{"fresh", func() {}, true},
		{"zoom-out", func() { rec = ov.ZoomOut("M") }, false},
		{"zoom-in", func() { ov.ZoomIn(rec) }, true},
		{"applied delete", func() { ov.Delete(leaf) }, false},
		{"reset", func() { ov.Reset(g) }, true},
		{"appended edge", func() { ov.AddEdge(0, leaf) }, false},
		{"reset after the edge", func() { ov.Reset(g) }, true},
		{"value override", func() { ov.setValue(leaf, nested.Int(1)) }, false},
		{"reset after the value", func() { ov.Reset(g) }, true},
	} {
		step.do()
		if got := ov.Changes() == 0; got != step.want {
			t.Fatalf("%s: no delta = %v, want %v (Changes %d)", step.name, got, step.want, ov.Changes())
		}
		if step.name == "zoom-in" && len(ov.pages) == 0 {
			t.Fatal("zoom-in: the round trip left no page; the case this test holds is gone")
		}
	}
}

// TestNoDeltaViewMatchesBase holds an overlay without deltas to its
// base, on the dealership fixture and on moduleGraph, each built, frozen
// to CSR, and frozen with dead slots: fresh, after a zoom round trip of
// each module, and after Reset. Deletion is checked against the
// reference kernel on both the overlay and the base (which read liveness
// through Alive, not through the predicate), and so is the subgraph; the
// what-if of every high-fan-out target, expressions, DOT and stats must
// be identical through the overlay and the base. The bases without dead
// slots take deletion's in-degree shortcut; frozen-dead counts live
// in-edges.
func TestNoDeltaViewMatchesBase(t *testing.T) {
	mod, _ := moduleGraph(1 << 13)
	for _, b := range []struct {
		name string
		g    *Graph
	}{{"fixture", buildDealershipFixture().g}, {"module-graph", mod}} {
		dead := b.g.Clone()
		RefDelete(dead, fanoutNodes(dead, 3)[2])
		for _, v := range []struct {
			name string
			g    *Graph
			dead bool
		}{
			{"built", b.g, false},
			{"frozen", FromFrozen(Freeze(b.g), nil), false},
			{"frozen-dead", FromFrozen(Freeze(dead), nil), true},
		} {
			g := v.g
			if (g.dead > 0) != v.dead {
				t.Fatalf("%s/%s: %d dead slots", b.name, v.name, g.dead)
			}
			targets := fanoutNodes(g, 50)
			want := viewAnswers(t, g, g, targets)
			ov := NewOverlay(g)
			check := func(state string) {
				t.Helper()
				if ov.Changes() != 0 {
					t.Fatalf("%s/%s/%s: the overlay holds a delta", b.name, v.name, state)
				}
				if got := viewAnswers(t, ov, g, targets); got != want {
					t.Errorf("%s/%s/%s: the overlay answers differently from its base", b.name, v.name, state)
				}
			}
			check("fresh")
			for _, m := range moduleNames(g) {
				ov.ZoomIn(ov.ZoomOut(m))
				check("round trip of " + m)
			}
			ov.Delete(targets[0])
			ov.Reset(g)
			check("reset")
		}
	}
}

// viewAnswers renders v's answers to the read kernels on targets. g is
// v's base, which the reference kernels' checks also read.
func viewAnswers(t *testing.T, v GraphView, g *Graph, targets []NodeID) string {
	t.Helper()
	var out bytes.Buffer
	for _, id := range targets {
		removed := v.PropagateDeletion(id).Removed
		if ref := RefPropagateDeletion(v, id); !slices.Equal(removed, ref) {
			t.Errorf("delete %d: removed %v, reference %v", id, removed, ref)
		}
		if ref := RefPropagateDeletion(g, id); !slices.Equal(removed, ref) {
			t.Errorf("delete %d: removed %v, reference on the base %v", id, removed, ref)
		}
		fmt.Fprintln(&out, "delete", id, removed)
		for _, r := range removed {
			typ, op := v.TypeOp(r)
			fmt.Fprintf(&out, "  %d %s %s %q\n", r, typ, op, v.LabelOf(r))
		}
		sub := v.Subgraph(id).Nodes
		if ref := RefSubgraph(v, id); !slices.Equal(sub, ref) {
			t.Errorf("subgraph %d: %v, reference %v", id, sub, ref)
		}
		expr, truncated := v.ExprString(id)
		fmt.Fprintln(&out, "subgraph", sub, "expr", expr, truncated, "depends", v.DependsOn(id, targets[0]))
	}
	if err := v.WriteDOT(&out, "t"); err != nil {
		t.Fatal(err)
	}
	st := v.ComputeStats()
	if ref := g.reader().stats(); !reflect.DeepEqual(st, ref) {
		t.Errorf("stats %+v, a fresh walk of the base %+v", st, ref)
	}
	fmt.Fprintf(&out, "%d %d %d %d %d %v\n", st.Nodes, st.Edges, st.PNodes, st.VNodes, st.Invocations, st.ByType)
	return out.String()
}

// fanoutNodes returns up to n live ids with the highest out-degree, ties
// in id order: workflowgen.HighFanoutNodes's targets, for tests inside
// this package.
func fanoutNodes(g *Graph, n int) []NodeID {
	var ids []NodeID
	g.Nodes(func(nd Node) bool {
		ids = append(ids, nd.ID)
		return true
	})
	slices.SortStableFunc(ids, func(a, b NodeID) int { return len(g.Out(b)) - len(g.Out(a)) })
	return ids[:min(n, len(ids))]
}

// moduleNames lists the graph's modules in first-invocation order.
func moduleNames(g *Graph) []string {
	var mods []string
	g.Invocations(func(inv *Invocation) bool {
		if !slices.Contains(mods, inv.Module) {
			mods = append(mods, inv.Module)
		}
		return true
	})
	return mods
}
