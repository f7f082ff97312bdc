package provgraph

import (
	"fmt"
	"sync"

	"lipstick/internal/nested"
)

// This file is the streaming half of provenance capture: every mutation a
// Builder (or a graph transformation) performs on a Graph can be observed
// as a typed Event, shipped as an ordered stream, and replayed elsewhere
// into a Graph that is event-for-event identical to the in-process build.
// The event stream is what turns the batch pipeline ("run the workflow,
// write the whole snapshot, then query") into an incremental one: a
// tracker emits events while the workflow runs, a store appends them to a
// write-ahead log, and a live graph applies them between queries.

// EventKind tags one graph mutation.
type EventKind uint8

const (
	// EvAddNode appends a node; Event.Node carries it with its assigned id.
	EvAddNode EventKind = iota
	// EvAddEdge appends a derivation edge Src -> Dst.
	EvAddEdge
	// EvOpenInvocation opens a module invocation record (Event.Inv is the
	// assigned id, Src its m-node, Module/NodeName/Execution its identity).
	EvOpenInvocation
	// EvAnchor attaches node Src to invocation Inv's anchor list selected
	// by Event.Anchor — the incremental completion of an open invocation
	// (its final anchor event is what "closes" it).
	EvAnchor
	// EvSetNodeInv back-references node Src to invocation Inv.
	EvSetNodeInv
	// EvKill marks node Src dead (deletion propagation, ZoomOut).
	EvKill
	// EvRevive marks node Src live again (ZoomIn).
	EvRevive
	// EvSetValue overwrites node Src's carried value with Event.Value
	// (aggregate recomputation after an applied deletion).
	EvSetValue
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvAddNode:
		return "add-node"
	case EvAddEdge:
		return "add-edge"
	case EvOpenInvocation:
		return "open-invocation"
	case EvAnchor:
		return "anchor"
	case EvSetNodeInv:
		return "set-node-inv"
	case EvKill:
		return "kill"
	case EvRevive:
		return "revive"
	case EvSetValue:
		return "set-value"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// AnchorKind selects which anchor list of an invocation an EvAnchor event
// appends to.
type AnchorKind uint8

const (
	// AnchorInput appends to Invocation.Inputs.
	AnchorInput AnchorKind = iota
	// AnchorOutput appends to Invocation.Outputs.
	AnchorOutput
	// AnchorState appends to Invocation.States.
	AnchorState
)

// Event is one captured graph mutation. Field use depends on Kind; ids are
// the ones the source graph assigned, so a replayed graph must evolve in
// lockstep (Apply verifies this) and ends up id-for-id identical.
type Event struct {
	Kind EventKind
	// Node is the appended node (EvAddNode), ID included.
	Node Node
	// Src is the edge source (EvAddEdge), the subject node of
	// EvAnchor/EvSetNodeInv/EvKill/EvRevive/EvSetValue, and the m-node of
	// EvOpenInvocation.
	Src NodeID
	// Dst is the edge target (EvAddEdge).
	Dst NodeID
	// Inv is the invocation id of EvOpenInvocation/EvAnchor/EvSetNodeInv.
	Inv InvID
	// Module, NodeName, Execution identify an opened invocation.
	Module    string
	NodeName  string
	Execution int
	// Anchor selects the anchor list of an EvAnchor event.
	Anchor AnchorKind
	// Value is the new carried value of an EvSetValue event.
	Value nested.Value
}

// SetEventSink attaches fn as the graph's mutation observer: every
// subsequent AddNode/AddEdge/invocation/liveness/value mutation is
// reported as an Event, in application order. A nil fn detaches. The sink
// is invoked synchronously under whatever synchronization the caller uses
// for mutations (graph builds are single-writer); Clone does not inherit
// it.
func (g *Graph) SetEventSink(fn func(Event)) { g.events = fn }

// emit reports a mutation to the attached sink, if any.
func (g *Graph) emit(ev Event) {
	if g.events != nil {
		g.events(ev)
	}
}

// Apply applies one captured event to g, validating that the event
// continues g's build exactly: appended ids must continue the id space and
// referenced ids must exist. A corrupt or out-of-order event returns an
// error and leaves g unchanged. The event is read in place, never copied
// or retained.
func Apply(g *Graph, ev *Event) error {
	total := NodeID(g.TotalNodes())
	numInv := InvID(g.NumInvocations())
	checkNode := func(id NodeID) error {
		if id < 0 || id >= total {
			return fmt.Errorf("provgraph: %s event references node %d outside graph of %d slots", ev.Kind, id, total)
		}
		return nil
	}
	switch ev.Kind {
	case EvAddNode:
		n := &ev.Node
		if n.ID != total {
			return fmt.Errorf("provgraph: add-node event id %d does not continue graph with %d slots", n.ID, total)
		}
		if n.Inv < -1 || n.Inv >= numInv {
			return fmt.Errorf("provgraph: add-node event references invocation %d (graph has %d)", n.Inv, numInv)
		}
		if !KnownKind(n.Class, n.Type, n.Op) {
			return fmt.Errorf("provgraph: add-node event has an unknown class, type or op (%d, %d, %d)", n.Class, n.Type, n.Op)
		}
		g.appendNode(n)
		if n.Op == OpConst {
			internConst(g, n.ID, constKeyOf(n.Value))
		}
	case EvAddEdge:
		if err := checkNode(ev.Src); err != nil {
			return err
		}
		if err := checkNode(ev.Dst); err != nil {
			return err
		}
		g.AddEdge(ev.Src, ev.Dst)
	case EvOpenInvocation:
		if ev.Inv != numInv {
			return fmt.Errorf("provgraph: open-invocation event id %d does not continue graph with %d invocations", ev.Inv, numInv)
		}
		if err := checkNode(ev.Src); err != nil {
			return err
		}
		g.AddInvocation(Invocation{
			Module: ev.Module, NodeName: ev.NodeName,
			Execution: ev.Execution, MNode: ev.Src,
		})
	case EvAnchor:
		if ev.Inv < 0 || ev.Inv >= numInv {
			return fmt.Errorf("provgraph: anchor event references invocation %d (graph has %d)", ev.Inv, numInv)
		}
		if err := checkNode(ev.Src); err != nil {
			return err
		}
		if ev.Anchor > AnchorState {
			return fmt.Errorf("provgraph: invalid anchor kind %d", ev.Anchor)
		}
		g.addAnchor(ev.Inv, ev.Anchor, ev.Src)
	case EvSetNodeInv:
		if err := checkNode(ev.Src); err != nil {
			return err
		}
		if ev.Inv < 0 || ev.Inv >= numInv {
			return fmt.Errorf("provgraph: set-node-inv event references invocation %d (graph has %d)", ev.Inv, numInv)
		}
		g.setNodeInv(ev.Src, ev.Inv)
	case EvKill:
		if err := checkNode(ev.Src); err != nil {
			return err
		}
		g.kill(ev.Src)
	case EvRevive:
		if err := checkNode(ev.Src); err != nil {
			return err
		}
		g.revive(ev.Src)
	case EvSetValue:
		if err := checkNode(ev.Src); err != nil {
			return err
		}
		g.setValue(ev.Src, ev.Value)
	default:
		return fmt.Errorf("provgraph: unknown event kind %d", ev.Kind)
	}
	return nil
}

// Replay reconstructs a graph from a captured event stream. The result is
// id-for-id identical to the graph the events were captured from.
func Replay(events []Event) (*Graph, error) {
	g := New()
	for i := range events {
		if err := Apply(g, &events[i]); err != nil {
			return nil, fmt.Errorf("replaying event %d: %w", i, err)
		}
	}
	return g, nil
}

// EventLog is a concurrency-safe capture buffer: attach its Record method
// as a graph's event sink and drain batches from another goroutine (a
// streaming sender, a WAL appender). Total keeps counting across drains,
// so a sender can number batches with stable sequence numbers.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event // guarded by mu
	total uint64  // guarded by mu
}

// NewEventLog returns an empty event buffer.
func NewEventLog() *EventLog { return &EventLog{} }

// Record appends one event (the sink signature of Graph.SetEventSink).
func (l *EventLog) Record(ev Event) {
	l.mu.Lock()
	l.buf = append(l.buf, ev)
	l.total++
	l.mu.Unlock()
}

// Len returns the number of buffered (undrained) events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Total returns the number of events ever recorded, drained included.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Drain removes and returns the buffered events.
func (l *EventLog) Drain() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.buf
	l.buf = nil
	return out
}

// Events returns a copy of the buffered events without draining them.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.buf...)
}
