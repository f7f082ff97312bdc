package provgraph

import (
	"reflect"
	"strings"
	"testing"

	"lipstick/internal/nested"
)

// captureFixture builds the dealership fixture with an event sink attached
// from the first mutation, returning the fixture and the captured log.
func captureFixture(t *testing.T) (*dealershipFixture, *EventLog) {
	t.Helper()
	log := NewEventLog()
	f := &dealershipFixture{b: NewBuilder()}
	f.g = f.b.G
	f.g.SetEventSink(log.Record)
	// Rebuild via the shared fixture construction: re-run it on a sinked
	// graph by copying the build steps through a fresh fixture is brittle;
	// instead replay the canonical fixture build into this graph.
	rebuildFixtureInto(f)
	return f, log
}

// rebuildFixtureInto repeats buildDealershipFixture's construction on an
// already-prepared builder (so tests can attach an event sink first).
func rebuildFixtureInto(f *dealershipFixture) {
	b := f.b
	f.n00 = b.WorkflowInput("I1")
	f.invAnd = b.BeginInvocation("M_and", "and", 0)
	f.iAnd = b.ModuleInput(f.invAnd, f.n00)
	f.oAnd = b.ModuleOutput(f.invAnd, f.iAnd)
	f.invD1 = b.BeginInvocation("M_dealer1", "dealer1", 0)
	f.n41 = b.ModuleInput(f.invD1, f.oAnd)
	f.n01 = b.BaseTuple("C2")
	f.n02 = b.BaseTuple("C3")
	f.n42 = b.StateTuple(f.invD1, f.n01)
	f.n43 = b.StateTuple(f.invD1, f.n02)
	f.n50 = b.Project(f.n41)
	f.n60 = b.Join(f.n42, f.n50)
	f.n61 = b.Join(f.n43, f.n50)
	f.n71 = b.Group(f.n60, f.n61)
	f.n70 = b.Aggregate("COUNT", []AggContribution{
		{TupleProv: f.n60, Value: nested.Int(1)},
		{TupleProv: f.n61, Value: nested.Int(1)},
	}, nested.Int(2))
	f.numCars = b.Project(f.n71)
	b.AddEdge(f.n70, f.numCars)
	f.n75 = b.Group(f.n41, f.numCars)
	f.n80 = b.BlackBox("calcBid", true, nested.Float(20000), f.n75)
	f.n90 = b.ModuleOutput(f.invD1, f.n75, f.n80)
	f.invD2 = b.BeginInvocation("M_dealer2", "dealer2", 0)
	f.iD2 = b.ModuleInput(f.invD2, f.oAnd)
	f.oD2 = b.ModuleOutput(f.invD2, f.iD2)
	f.invAgg = b.BeginInvocation("M_agg", "agg", 0)
	f.iAgg1 = b.ModuleInput(f.invAgg, f.n90)
	f.iAgg2 = b.ModuleInput(f.invAgg, f.oD2)
	f.n110 = b.Group(f.iAgg1, f.iAgg2)
	f.aggMin = b.Aggregate("MIN", []AggContribution{
		{TupleProv: f.iAgg1, Value: nested.Float(20000)},
		{TupleProv: f.iAgg2, Value: nested.Float(22000)},
	}, nested.Float(20000))
	best := b.Project(f.n110)
	b.AddEdge(f.aggMin, best)
	f.oAgg = b.ModuleOutput(f.invAgg, best, f.aggMin)
}

// graphsFullyEqual asserts structural equality plus everything
// StructurallyEqual does not cover: invocation records, carried values,
// and dead-slot sets.
func graphsFullyEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if !want.StructurallyEqual(got) {
		t.Fatalf("replayed graph is not structurally equal to the source")
	}
	if want.NumInvocations() != got.NumInvocations() {
		t.Fatalf("invocations: want %d, got %d", want.NumInvocations(), got.NumInvocations())
	}
	for i := 0; i < want.NumInvocations(); i++ {
		a, b := want.Invocation(InvID(i)), got.Invocation(InvID(i))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("invocation %d differs:\nwant %+v\ngot  %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(want.DeadNodes(), got.DeadNodes()) {
		t.Fatalf("dead nodes differ: want %v, got %v", want.DeadNodes(), got.DeadNodes())
	}
	for id := 0; id < want.TotalNodes(); id++ {
		a, b := want.Node(NodeID(id)), got.Node(NodeID(id))
		if a.Value.Key() != b.Value.Key() || a.Inv != b.Inv {
			t.Fatalf("node %d differs:\nwant %+v\ngot  %+v", id, a, b)
		}
	}
}

func TestReplayRebuildsBuilderGraph(t *testing.T) {
	f, log := captureFixture(t)
	replayed, err := Replay(log.Events())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	graphsFullyEqual(t, f.g, replayed)
}

func TestReplayCoversTransformations(t *testing.T) {
	// A session's zoom, deletion and aggregate recomputation, materialized
	// onto a sinked clone, must stream as add/kill/set-value events that
	// replay, after the base's build, to the materialized view.
	f, log := captureFixture(t)
	ov := NewOverlay(f.g)
	ov.ZoomIn(ov.ZoomOut("M_dealer1"))
	ov.ZoomOut("M_dealer2")
	ov.Delete(f.n01)
	if len(ov.RecomputeAggregates()) == 0 {
		t.Fatal("deleting C2 recomputed no aggregate")
	}
	c := f.g.Clone()
	c.SetEventSink(log.Record)
	ov.applyTo(c)

	events := log.Events()
	kinds := map[EventKind]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, k := range []EventKind{EvKill, EvSetValue} {
		if !kinds[k] {
			t.Errorf("the stream holds no %v event", k)
		}
	}
	replayed, err := Replay(events)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	graphsFullyEqual(t, ov.Materialize(), replayed)

	// A revive replays too: no session revives a node its base holds
	// dead, so the event comes from the stream alone.
	if err := Apply(replayed, &Event{Kind: EvRevive, Src: f.n01}); err != nil {
		t.Fatal(err)
	}
	if !replayed.Alive(f.n01) {
		t.Error("EvRevive did not revive C2")
	}
}

func TestApplyRejectsCorruptEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"node id gap", Event{Kind: EvAddNode, Node: Node{ID: 5}}},
		{"node bad inv", Event{Kind: EvAddNode, Node: Node{ID: 0, Inv: 3}}},
		{"edge out of range", Event{Kind: EvAddEdge, Src: 0, Dst: 9}},
		{"invocation id gap", Event{Kind: EvOpenInvocation, Inv: 2}},
		{"anchor unknown inv", Event{Kind: EvAnchor, Inv: 0, Src: 0}},
		{"kill out of range", Event{Kind: EvKill, Src: 1}},
		{"set-value negative", Event{Kind: EvSetValue, Src: -1}},
		{"unknown kind", Event{Kind: EventKind(99)}},
		{"node class past ClassV", Event{Kind: EvAddNode, Node: Node{ID: 0, Inv: -1, Class: ClassV + 1}}},
		{"node type past TypeZoom", Event{Kind: EvAddNode, Node: Node{ID: 0, Inv: -1, Type: TypeZoom + 1}}},
		{"node op past OpConst", Event{Kind: EvAddNode, Node: Node{ID: 0, Inv: -1, Op: OpConst + 1}}},
	}
	for _, tc := range cases {
		g := New()
		if tc.ev.Kind == EvAddEdge || tc.ev.Kind == EvKill {
			g.AddNode(Node{})
		}
		if err := Apply(g, &tc.ev); err == nil {
			t.Errorf("%s: Apply accepted a corrupt event", tc.name)
		}
	}
}

// TestReplayRejectsUnknownNodeKinds: an add-node event whose type is
// past the enum fails the replay instead of entering the graph, where
// the next checkpoint's postings would index out of range.
func TestReplayRejectsUnknownNodeKinds(t *testing.T) {
	events := []Event{
		{Kind: EvAddNode, Node: Node{ID: 0, Inv: -1, Type: TypeBaseTuple}},
		{Kind: EvAddNode, Node: Node{ID: 1, Inv: -1, Type: Type(48)}},
	}
	if _, err := Replay(events); err == nil || !strings.Contains(err.Error(), "replaying event 1") {
		t.Fatalf("Replay of a type-48 node: %v, want an error at event 1", err)
	}
}

func TestEventLogDrainAndTotal(t *testing.T) {
	log := NewEventLog()
	g := New()
	g.SetEventSink(log.Record)
	g.AddNode(Node{})
	g.AddNode(Node{})
	if log.Len() != 2 || log.Total() != 2 {
		t.Fatalf("len=%d total=%d, want 2/2", log.Len(), log.Total())
	}
	if got := log.Drain(); len(got) != 2 {
		t.Fatalf("drained %d events, want 2", len(got))
	}
	g.AddEdge(0, 1)
	if log.Len() != 1 || log.Total() != 3 {
		t.Fatalf("after drain: len=%d total=%d, want 1/3", log.Len(), log.Total())
	}
}
