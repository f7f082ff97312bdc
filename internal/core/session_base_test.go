package core

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// TestSessionAnswersLikeItsBase is the differential test of the session
// read path on a mapped snapshot of a dealership run and of a module
// graph. A session without deltas (fresh, after a zoom round trip of
// each module, after an overlay Reset) answers from its base, and must
// answer byte-identically to the snapshot itself: the what-if delete of
// every high-fan-out target (removed ids in order and the described
// nodes, as JSON), subgraph, lineage with its expression, find, DOT and
// stats. A session with deltas (zoomed out, after an applied delete,
// after an aggregate's value override) must answer like the clone
// baseline: its materialized view, queried as a snapshot of its own.
func TestSessionAnswersLikeItsBase(t *testing.T) {
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 60, NumExec: 2, Seed: 7, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, b := range []struct {
		name    string
		g       *provgraph.Graph
		modules []string
	}{
		{"dealership", run.Runner.Graph(), dealershipZoomModules},
		{"module-graph", moduleGraph(1 << 12), []string{"M"}},
	} {
		path := filepath.Join(dir, b.name+".lpsk")
		if err := store.Save(path, &store.Snapshot{Graph: b.g}); err != nil {
			t.Fatal(err)
		}
		qp, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		targets := workflowgen.HighFanoutNodes(qp.Graph(), 50)
		want := answersOf(t, processorReads(qp), targets)

		s := NewSession(qp)
		check := func(state string) {
			t.Helper()
			if s.Changes() != 0 {
				t.Fatalf("%s/%s: the session holds %d deltas", b.name, state, s.Changes())
			}
			if got := answersOf(t, sessionReads(s), targets); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: the session answers differently from its base snapshot", b.name, state)
			}
			// The session answered from its base; the overlay itself,
			// read through its liveness pages and materialized, must be
			// that base too.
			s.mu.Lock()
			st, mat := s.overlay.ComputeStats(), s.overlay.Materialize()
			s.mu.Unlock()
			if base := qp.Graph().ComputeStats(); !reflect.DeepEqual(st, base) {
				t.Errorf("%s/%s: the overlay's stats %+v, its base's %+v", b.name, state, st, base)
			}
			clone := NewQueryProcessor(&store.Snapshot{Graph: mat})
			if got := answersOf(t, processorReads(clone), targets); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: the materialized overlay answers differently from its base", b.name, state)
			}
		}
		check("fresh")
		for _, m := range b.modules {
			if _, err := s.ZoomOut(m); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ZoomIn(); err != nil {
				t.Fatal(err)
			}
			check("round trip of " + m)
		}
		s.ApplyDelete(targets[0])
		s.mu.Lock()
		s.overlay.Reset(qp.Graph())
		s.mu.Unlock()
		check("reset")

		mutations := []struct {
			name   string
			mutate func(*Session)
		}{
			{"zoomed-out", func(s *Session) {
				if _, err := s.ZoomOut(b.modules[0]); err != nil {
					t.Fatal(err)
				}
			}},
			{"applied delete", func(s *Session) { s.ApplyDelete(targets[1]) }},
		}
		if b.name == "dealership" {
			mutations = append(mutations, struct {
				name   string
				mutate func(*Session)
			}{"value override", func(s *Session) { applyRecomputingDelete(t, s) }})
		}
		for _, m := range mutations {
			s := NewSession(qp)
			m.mutate(s)
			s.mu.Lock()
			clone := NewQueryProcessor(&store.Snapshot{Graph: s.overlay.Materialize()})
			s.mu.Unlock()
			if s.Changes() == 0 {
				t.Fatalf("%s/%s: the mutation left no delta", b.name, m.name)
			}
			if got, want := answersOf(t, sessionReads(s), targets), answersOf(t, processorReads(clone), targets); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: the session answers differently from the clone baseline", b.name, m.name)
			}
		}
	}
}

// applyRecomputingDelete applies, in s, the deletion of the first base
// tuple whose deletion changes an aggregate's value.
func applyRecomputingDelete(t *testing.T, s *Session) {
	t.Helper()
	for _, id := range s.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeBaseTuple}}) {
		probe := NewSession(s.Base())
		if _, recs := probe.ApplyDelete(id); len(recs) > 0 {
			s.ApplyDelete(id)
			return
		}
	}
	t.Fatal("no base tuple's deletion recomputes an aggregate")
}

// reads is one read surface under test: read runs fn over one view,
// whatIf computes a what-if delete and calls fn with the view it ran on,
// and stats summarizes the view.
type reads struct {
	read   func(fn func(View))
	whatIf func(id provgraph.NodeID, fn func(View, *provgraph.DeletionResult))
	stats  func() provgraph.Stats
}

func processorReads(qp *QueryProcessor) reads {
	return reads{
		read: func(fn func(View)) { fn(qp.View()) },
		whatIf: func(id provgraph.NodeID, fn func(View, *provgraph.DeletionResult)) {
			fn(qp.View(), qp.WhatIfDelete(id))
		},
		stats: qp.Stats,
	}
}

func sessionReads(s *Session) reads {
	return reads{
		read: func(fn func(View)) {
			_ = s.Read(func(v View) error { fn(v); return nil })
		},
		whatIf: func(id provgraph.NodeID, fn func(View, *provgraph.DeletionResult)) {
			if err := s.Delete([]provgraph.NodeID{id}, true, func(v View, res *provgraph.DeletionResult, _ []provgraph.RecomputedAggregate) {
				fn(v, res)
			}); err != nil {
				panic(err)
			}
		},
		stats: s.Stats,
	}
}

// answersOf renders r's answers on targets as JSON lines, then the DOT
// and the stats.
func answersOf(t *testing.T, r reads, targets []provgraph.NodeID) []byte {
	t.Helper()
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	type described struct {
		ID              provgraph.NodeID
		Type, Op, Label string
	}
	for _, id := range targets {
		r.whatIf(id, func(v View, res *provgraph.DeletionResult) {
			nodes := make([]described, 0, res.Size())
			for _, n := range res.Removed {
				typ, op := v.Graph.TypeOp(n)
				nodes = append(nodes, described{n, typ.String(), op.String(), v.Graph.LabelOf(n)})
			}
			put(nodes)
		})
	}
	r.read(func(v View) {
		for _, id := range targets {
			expr, truncated := v.Graph.ExprString(id)
			put([]any{v.Graph.Subgraph(id).Nodes, v.Lineage(id), expr, truncated})
		}
		for _, f := range indexFilters() {
			put(v.FindNodes(f))
		}
		if err := v.Graph.WriteDOT(&out, "t"); err != nil {
			t.Fatal(err)
		}
	})
	put(r.stats())
	return out.Bytes()
}

// moduleGraph builds n node slots: one invocation of module "M" (a
// workflow input through a module input, one internal op and a module
// output), then disconnected a -> b pairs as filler.
func moduleGraph(n int) *provgraph.Graph {
	b := provgraph.NewBuilder()
	inv := b.BeginInvocation("M", "m", 0)
	in := b.ModuleInput(inv, b.WorkflowInput("I"))
	b.ModuleOutput(inv, b.Project(in))
	g := b.G
	for g.TotalNodes() < n {
		a := g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpPlus})
		g.AddEdge(a, g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpPlus}))
	}
	return g
}
