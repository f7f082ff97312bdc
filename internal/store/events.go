package store

import (
	"fmt"
	"io"

	"lipstick/internal/provgraph"
)

// Event codec: the binary wire format provenance events travel in — the
// payload of /v1/ingest batches, the records of the write-ahead log
// (wal.go), and anything else that ships a capture stream between
// processes. It reuses the snapshot codec's primitives (varints,
// length-prefixed strings, nested values), so a value embedded in an
// event round-trips exactly as it does in a snapshot.

// eventMagic identifies an encoded event batch; a version byte follows.
var eventMagic = []byte{'L', 'P', 'E', 'V'}

// eventBatchVersion is the current batch framing version.
const eventBatchVersion = 1

// EncodeEventBatch frames events for shipping: magic, version, the
// sequence number of the first event (events are numbered 1,2,3,... per
// stream), the count, then the encoded events.
func EncodeEventBatch(out io.Writer, firstSeq uint64, events []provgraph.Event) error {
	w := newWriter(out)
	w.raw(eventMagic)
	w.byte(eventBatchVersion)
	w.uvarint(firstSeq)
	w.uvarint(uint64(len(events)))
	for i := range events {
		w.event(&events[i])
	}
	return w.flush()
}

// DecodeEventBatch reads one encoded event batch.
func DecodeEventBatch(in io.Reader) (firstSeq uint64, events []provgraph.Event, err error) {
	r := newReader(in)
	head := make([]byte, len(eventMagic)+1)
	if _, err := io.ReadFull(r.r, head); err != nil {
		return 0, nil, fmt.Errorf("store: reading event batch header: %w", err)
	}
	for i := range eventMagic {
		if head[i] != eventMagic[i] {
			return 0, nil, fmt.Errorf("store: bad magic (not a lipstick event batch)")
		}
	}
	if v := head[len(eventMagic)]; v != eventBatchVersion {
		return 0, nil, fmt.Errorf("store: unsupported event batch version %d", v)
	}
	if firstSeq, err = r.uvarint(); err != nil {
		return 0, nil, err
	}
	count, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if count > maxLen {
		return 0, nil, fmt.Errorf("store: event count %d exceeds limit", count)
	}
	// Grow as events actually decode: the count is attacker-controlled on
	// the ingest path (capHint).
	events = make([]provgraph.Event, 0, capHint(count))
	for i := uint64(0); i < count; i++ {
		ev, err := r.event()
		if err != nil {
			return 0, nil, fmt.Errorf("store: event %d: %w", i, err)
		}
		events = append(events, ev)
	}
	return firstSeq, events, nil
}

// event encodes one event with a leading kind byte. Field layout per kind
// mirrors provgraph.Event's documented field use.
func (w *writer) event(ev *provgraph.Event) {
	w.byte(byte(ev.Kind))
	switch ev.Kind {
	case provgraph.EvAddNode:
		n := &ev.Node
		w.uvarint(uint64(n.ID))
		w.byte(byte(n.Class))
		w.byte(byte(n.Type))
		w.byte(byte(n.Op))
		w.str(n.Label)
		w.varint(int64(n.Inv))
		w.value(n.Value)
	case provgraph.EvAddEdge:
		w.uvarint(uint64(ev.Src))
		w.uvarint(uint64(ev.Dst))
	case provgraph.EvOpenInvocation:
		w.uvarint(uint64(ev.Inv))
		w.str(ev.Module)
		w.str(ev.NodeName)
		w.uvarint(uint64(ev.Execution))
		w.uvarint(uint64(ev.Src))
	case provgraph.EvAnchor:
		w.uvarint(uint64(ev.Inv))
		w.byte(byte(ev.Anchor))
		w.uvarint(uint64(ev.Src))
	case provgraph.EvSetNodeInv:
		w.uvarint(uint64(ev.Src))
		w.uvarint(uint64(ev.Inv))
	case provgraph.EvKill, provgraph.EvRevive:
		w.uvarint(uint64(ev.Src))
	case provgraph.EvSetValue:
		w.uvarint(uint64(ev.Src))
		w.value(ev.Value)
	default:
		if w.err == nil {
			w.err = fmt.Errorf("store: cannot encode event kind %d", ev.Kind)
		}
	}
}

// event decodes one event. Structural validity against a particular graph
// (id ranges, sequencing) is provgraph.Apply's job; the decoder only
// enforces wire-format sanity.
func (r *reader) event() (provgraph.Event, error) {
	var ev provgraph.Event
	kind, err := r.byte()
	if err != nil {
		return ev, err
	}
	ev.Kind = provgraph.EventKind(kind)
	switch ev.Kind {
	case provgraph.EvAddNode:
		id, err := r.nodeID()
		if err != nil {
			return ev, err
		}
		class, err := r.byte()
		if err != nil {
			return ev, err
		}
		typ, err := r.byte()
		if err != nil {
			return ev, err
		}
		op, err := r.byte()
		if err != nil {
			return ev, err
		}
		label, err := r.str()
		if err != nil {
			return ev, err
		}
		inv, err := r.varint()
		if err != nil {
			return ev, err
		}
		if inv < -1 || inv > 1<<31-1 {
			return ev, fmt.Errorf("invocation id %d out of range", inv)
		}
		val, err := r.value()
		if err != nil {
			return ev, err
		}
		ev.Node = provgraph.Node{
			ID:    id,
			Class: provgraph.Class(class),
			Type:  provgraph.Type(typ),
			Op:    provgraph.Op(op),
			Label: label,
			Inv:   provgraph.InvID(inv),
			Value: val,
		}
	case provgraph.EvAddEdge:
		if ev.Src, err = r.nodeID(); err != nil {
			return ev, err
		}
		if ev.Dst, err = r.nodeID(); err != nil {
			return ev, err
		}
	case provgraph.EvOpenInvocation:
		if ev.Inv, err = r.invID(); err != nil {
			return ev, err
		}
		if ev.Module, err = r.str(); err != nil {
			return ev, err
		}
		if ev.NodeName, err = r.str(); err != nil {
			return ev, err
		}
		exec, err := r.uvarint()
		if err != nil {
			return ev, err
		}
		ev.Execution = int(exec)
		if ev.Src, err = r.nodeID(); err != nil {
			return ev, err
		}
	case provgraph.EvAnchor:
		if ev.Inv, err = r.invID(); err != nil {
			return ev, err
		}
		anchor, err := r.byte()
		if err != nil {
			return ev, err
		}
		ev.Anchor = provgraph.AnchorKind(anchor)
		if ev.Src, err = r.nodeID(); err != nil {
			return ev, err
		}
	case provgraph.EvSetNodeInv:
		if ev.Src, err = r.nodeID(); err != nil {
			return ev, err
		}
		if ev.Inv, err = r.invID(); err != nil {
			return ev, err
		}
	case provgraph.EvKill, provgraph.EvRevive:
		if ev.Src, err = r.nodeID(); err != nil {
			return ev, err
		}
	case provgraph.EvSetValue:
		if ev.Src, err = r.nodeID(); err != nil {
			return ev, err
		}
		if ev.Value, err = r.value(); err != nil {
			return ev, err
		}
	default:
		return ev, fmt.Errorf("invalid event kind %d", kind)
	}
	return ev, nil
}

// nodeID reads a node id, rejecting values outside the int32 id space.
func (r *reader) nodeID() (provgraph.NodeID, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<31-1 {
		return 0, fmt.Errorf("node id %d out of range", v)
	}
	return provgraph.NodeID(v), nil
}

// invID reads an invocation id, rejecting values outside the int32 space.
func (r *reader) invID() (provgraph.InvID, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<31-1 {
		return 0, fmt.Errorf("invocation id %d out of range", v)
	}
	return provgraph.InvID(v), nil
}
