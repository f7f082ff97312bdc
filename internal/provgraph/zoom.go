package provgraph

import (
	"math/bits"
	"slices"
)

// ZoomRecord remembers what a ZoomOut hid so that ZoomIn can restore it
// exactly; ZoomIn(ZoomOut(G, M), M) = G (Section 4.1). A record is
// immutable once returned, so forked sessions can share it.
type ZoomRecord struct {
	// Modules are the module names that were zoomed out.
	Modules []string
	// hidden are the intermediate, state and base-tuple nodes removed, in
	// hiding order; a memoized plan's list, shared read-only, on a hit.
	hidden []NodeID
	// zoomNodes are the zoomed-out module invocation nodes installed.
	zoomNodes []NodeID
	// undo is what the overlay's ZoomIn needs to roll the overlay back to
	// its state before the zoom.
	undo *zoomUndo
}

// zoomUndo marks an overlay's state before a zoom: the lengths of its
// appended nodes and edge log, its counters, and the zoom before it.
// masks are the hidden ids by liveness word; kept are the overridden
// slots the overlay held live before the zoom, the only hidden ids whose
// override can predate it.
type zoomUndo struct {
	prev                 *ZoomRecord
	added, edges         int
	liveDelta, overrides int
	masks, kept          []wordMask
}

// HiddenCount returns the number of nodes the zoom hid.
func (r *ZoomRecord) HiddenCount() int { return len(r.hidden) }

// ZoomNodes returns the installed zoomed-module nodes.
func (r *ZoomRecord) ZoomNodes() []NodeID { return append([]NodeID(nil), r.zoomNodes...) }

// ZoomNodeCount returns the number of installed zoomed-module nodes.
func (r *ZoomRecord) ZoomNodeCount() int { return len(r.zoomNodes) }

// IntermediateNodes returns, per Definition 4.1, the nodes that are part of
// the intermediate computation of some invocation of a module in the given
// set: nodes reachable from a module-input or state node of such an
// invocation along a directed path that contains no module-output node.
func (g *Graph) IntermediateNodes(modules map[string]bool) []NodeID {
	return intermediateNodesOf(g.reader(), moduleSetInvocations(g, modules))
}

// IntermediateNodes answers Definition 4.1 in the overlay view.
func (o *Overlay) IntermediateNodes(modules map[string]bool) []NodeID {
	return intermediateNodesOf(o.reader(), moduleSetInvocations(o.base, modules))
}

func moduleSetInvocations(g *Graph, modules map[string]bool) []InvID {
	var names []string
	for m, in := range modules {
		if in {
			names = append(names, m)
		}
	}
	return modulesInvocations(g, names)
}

// intermediateNodesOf answers Definition 4.1 for the given invocations
// (ascending): a BFS from their inputs and states, in invocation order.
func intermediateNodesOf(r reader, invs []InvID) []NodeID {
	s := getVisit(r.total())
	defer putVisit(s)
	starts := intermediatesInto(r, s, invs)
	if len(s.queue) == starts {
		return nil
	}
	return slices.Clone(s.queue[starts:])
}

// intermediatesInto runs the Definition 4.1 BFS on s, leaving the
// traversal's starts followed by the intermediate nodes, in discovery
// order, in s.queue; it returns the number of starts.
func intermediatesInto(r reader, s *visitScratch, invs []InvID) int {
	for _, i := range invs {
		inv := r.g.Invocation(i)
		for _, list := range [2][]NodeID{inv.Inputs, inv.States} {
			for _, start := range list {
				if r.alive(start) && s.visit(start) {
					s.queue = append(s.queue, start)
				}
			}
		}
	}
	starts := len(s.queue)
	// Condition (2) of Definition 4.1: the path may not contain an output
	// node (including the endpoint), so output nodes are neither collected
	// nor walked through.
	walk(r, s, 0, down, true)
	return starts
}

// ZoomOut hides all intermediate computations and state of every invocation
// of the given modules in the overlay view, and installs one zoomed-module
// p-node per invocation, wired from the invocation's inputs to its
// outputs; the kills and the installed nodes are deltas over the
// untouched base graph. It returns a record that ZoomIn accepts to
// restore the fine-grained view.
//
// Because invocations of the same module may share state, ZoomOut always
// applies to all invocations of a module, across all executions represented
// in the graph (Section 4.1).
func (o *Overlay) ZoomOut(modules ...string) *ZoomRecord {
	return o.zoomOut(modules, modulesInvocations(o.base, modules))
}

// ZoomOutInvocations is ZoomOut with the modules' invocations resolved by
// the caller, from a snapshot's postings index (store.Postings) instead
// of a scan of every invocation record. invs must hold every invocation
// of the modules and no other, in any order; duplicates are ignored.
func (o *Overlay) ZoomOutInvocations(modules []string, invs []InvID) *ZoomRecord {
	invs = slices.Clone(invs)
	slices.Sort(invs)
	return o.zoomOut(modules, slices.Compact(invs))
}

// zoomOut zooms out modules, whose invocations are invs (ascending), and
// marks the overlay's state before the zoom in the record. Over an
// overlay without deltas, what the zoom hides depends on the base and invs
// alone: it comes from the base's zoom memo, computed on the first such
// zoom, and is hidden a liveness word at a time. Step 5 runs either way.
func (o *Overlay) zoomOut(modules []string, invs []InvID) *ZoomRecord {
	u := &zoomUndo{prev: o.top, added: len(o.added), edges: len(o.edgeLog), liveDelta: o.liveDelta, overrides: o.overrides}
	var rec *ZoomRecord
	if o.Changes() == 0 {
		if p := o.base.zoomPlan(invs); p != nil {
			rec = &ZoomRecord{Modules: append([]string(nil), modules...), hidden: p.hidden}
			for _, m := range p.masks {
				o.killMask(m.w, m.bits)
			}
			installZoomNodes(o, rec, invs)
			u.masks = p.masks
		} else {
			rec = zoomOutOf(o, modules, invs)
			u.masks = o.base.memoZoomPlan(invs, rec.hidden).masks
		}
	} else {
		u.kept = o.liveOverrides()
		rec = zoomOutOf(o, modules, invs)
		u.masks = wordMasks(rec.hidden, o.TotalNodes())
	}
	rec.undo = u
	o.top = rec
	return rec
}

// zoomOutOf zooms out modules, whose invocations are invs (ascending).
func zoomOutOf(o *Overlay, modules []string, invs []InvID) *ZoomRecord {
	rec := &ZoomRecord{Modules: append([]string(nil), modules...)}
	r := o.reader()
	s := getVisit(r.total())
	defer putVisit(s)

	// Steps 1-3: find and remove intermediate computation nodes.
	starts := intermediatesInto(r, s, invs)
	hidden := append(s.ids[:0], s.queue[starts:]...)
	for _, id := range hidden {
		o.kill(id)
	}

	// Step 4: remove state nodes of the zoomed invocations, plus base
	// tuple nodes that fed only those state nodes.
	for _, i := range invs {
		for _, st := range o.Invocation(i).States {
			if !o.Alive(st) {
				continue
			}
			o.kill(st)
			hidden = append(hidden, st)
			for _, b := range r.adj(up, st, &s.adj) {
				if ty, _ := r.typeOp(b); ty != TypeBaseTuple || !o.Alive(b) {
					continue
				}
				// Hide the base tuple only when nothing live still
				// depends on it (state may be shared between modules).
				if !hasLiveOut(r, b, &s.adj2) {
					o.kill(b)
					hidden = append(hidden, b)
				}
			}
		}
	}

	// Constant-value v-nodes have no in-edges, so Definition 4.1 never
	// classifies them as intermediate; hide the ones the zoom orphaned so
	// the coarse view contains no dangling values (the coarse-grained
	// graph of Figure 2(b) has no v-nodes). Base tuples whose state nodes
	// never materialized (lazy state, untouched tuples) are likewise
	// orphans and disappear with their module's state.
	hidden = sweepOrphans(o, s, hidden)
	if len(hidden) > 0 {
		rec.hidden = slices.Clone(hidden)
	}
	s.ids = hidden[:0]

	installZoomNodes(o, rec, invs)
	return rec
}

// installZoomNodes is step 5: it installs a zoomed-module p-node per
// invocation, wired from the invocation's live inputs to its live
// outputs.
func installZoomNodes(o *Overlay, rec *ZoomRecord, invs []InvID) {
	for _, i := range invs {
		inv := o.Invocation(i)
		z := o.AddNode(Node{Class: ClassP, Type: TypeZoom, Label: inv.Module, Inv: inv.ID})
		rec.zoomNodes = append(rec.zoomNodes, z)
		for _, in := range inv.Inputs {
			if o.Alive(in) {
				o.AddEdge(in, z)
			}
		}
		for _, out := range inv.Outputs {
			if o.Alive(out) {
				o.AddEdge(z, out)
			}
		}
	}
}

// sweepOrphans hides every live OpConst or TypeBaseTuple node without a
// live out-neighbor, in id order, appending them to hidden. It visits the
// view's orphan candidates only, not every slot. Hiding a node can orphan
// an in-neighbor with a larger id, which a sweep in id order reaches
// later, so such in-neighbors join the candidates as the sweep goes; one
// with a smaller id has been passed, as it would be by a full sweep. A
// sure candidate is hidden unchecked, and a word of them at once: hiding
// it orphans no other node, so the order of its kill is unobservable
// beyond its place in hidden.
func sweepOrphans(o *Overlay, s *visitScratch, hidden []NodeID) []NodeID {
	r := o.reader()
	words := (o.TotalNodes() + 63) / 64
	s.cand, s.sure = grown(s.cand, words), grown(s.sure, words)
	cand, sure := s.cand[:words], s.sure[:words]
	clear(cand)
	clear(sure)
	o.orphanCandidates(cand, sure)
	for w := range cand {
		if c := cand[w]; c != 0 && c&^sure[w] == 0 {
			o.killMask(w, c)
			for ; c != 0; c &= c - 1 {
				hidden = append(hidden, NodeID(w*64+bits.TrailingZeros64(c)))
			}
			cand[w] = 0
			continue
		}
		// Bits are cleared as they are taken; candidates added mid-word
		// are picked up by re-reading the word.
		for cand[w] != 0 {
			b := bits.TrailingZeros64(cand[w])
			cand[w] &^= 1 << uint(b)
			id := NodeID(w*64 + b)
			if sure[w]&(1<<uint(b)) != 0 {
				o.kill(id)
				hidden = append(hidden, id)
				continue
			}
			if !o.Alive(id) {
				continue
			}
			if ty, op := r.typeOp(id); op != OpConst && ty != TypeBaseTuple {
				continue
			}
			if hasLiveOut(r, id, &s.adj) {
				continue
			}
			o.kill(id)
			hidden = append(hidden, id)
			for _, in := range r.adj(up, id, &s.adj) {
				if in > id {
					cand.set(int(in))
				}
			}
		}
	}
	return hidden
}

// ZoomIn restores the fine-grained view in the overlay. When the record
// is the overlay's newest zoom and nothing changed the overlay since, it
// rolls the overlay back to its exact state before that ZoomOut, so a
// session's zoom round trips leave no residue. Otherwise it kills the
// zoom nodes and revives each run of hidden ids that share a liveness
// word with one word operation.
func (o *Overlay) ZoomIn(rec *ZoomRecord) {
	if o.top == rec {
		o.rollback(rec)
		return
	}
	for _, id := range rec.zoomNodes {
		o.kill(id)
	}
	hidden := rec.hidden
	for i := 0; i < len(hidden); {
		w := int(hidden[i]) >> 6
		var mask uint64
		for ; i < len(hidden) && int(hidden[i])>>6 == w; i++ {
			mask |= 1 << (uint(hidden[i]) & 63)
		}
		o.reviveMask(w, mask)
	}
}
