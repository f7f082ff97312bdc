package provgraph

import (
	"math/bits"

	"lipstick/internal/nested"
)

// Overlay is a copy-on-write view over an immutable base Graph. Where
// Clone deep-copies every node, edge, and invocation record up front, an
// overlay starts empty and records only the deltas a session produces:
//
//   - node kills and revives (deletion propagation, ZoomOut/ZoomIn),
//   - appended nodes and their adjacency (the zoom p-nodes ZoomOut
//     installs),
//   - edges appended to base nodes (the zoom wiring), and
//   - value annotation changes (RecomputeAggregates after a deletion).
//
// Creating an overlay is O(1). Liveness overrides live in a paged bitset
// whose pages are allocated on first write, so a mutated overlay costs
// O(changes) memory for its node, edge and value deltas plus one 1.5 KiB
// page per 4,096-slot id range it has touched — and Alive, kill and
// revive are bit operations. killMask and reviveMask apply them to a
// word of 64 slots at once: ZoomOut hides the base's flat orphans, and
// ZoomIn revives each run of its hidden list that shares a word. A
// ZoomIn that undoes the overlay's newest zoom rolls every delta of that
// zoom back, so a session's slot count and Changes() do not grow with
// its zoom round trips. Thousands of concurrent what-if sessions can
// share one base graph.
// Appended nodes take ids from TotalNodes() upward — exactly the ids a
// Clone-then-mutate baseline would assign — so every query answered
// through the view (find, subgraph, lineage, deletion propagation, DOT,
// provenance expressions) is equal to the same query against a mutated
// clone (asserted by the equivalence tests).
//
// The base graph is never written: concurrent readers of the base (and of
// sibling overlays) stay race-free while this overlay mutates. One overlay
// is NOT safe for concurrent use by itself — callers serialize access per
// overlay (core.Session wraps one in a mutex).
type Overlay struct {
	base      *Graph
	baseSlots int // == base.TotalNodes(); the base is immutable by contract

	pages     []*livePage // liveness overrides by id range; nil = untouched
	overrides int         // overridden slots (set bits over all pages)
	liveDelta int         // live-node count delta vs. base (added nodes included)
	spare     []*livePage // pages released by Reset, reused before allocating

	added    []Node     // appended nodes; ids start at baseSlots
	addedOut [][]NodeID // adjacency of appended nodes
	addedIn  [][]NodeID

	extraOut map[NodeID][]NodeID // edges appended to base nodes
	extraIn  map[NodeID][]NodeID
	// edgeLog holds every appended edge in insertion order, so
	// Materialize can replay them exactly as a mutated clone would have
	// inserted them (adjacency order is observable through Expr, BFS
	// orders, and DOT output).
	edgeLog [][2]NodeID

	values map[NodeID]nested.Value // value overrides (aggregate recompute)

	// top is the overlay's newest zoom while no other mutation has
	// followed it; ZoomIn rolls such a zoom back. Every mutation clears
	// it, and a rollback restores the zoom before.
	top *ZoomRecord
}

var _ GraphView = (*Overlay)(nil)

const (
	livePageShift = 12 // node slots per page: 4096
	livePageWords = 1 << (livePageShift - 6)
)

// livePage holds the liveness overrides of one aligned range of node
// slots. set marks the slots the overlay has overridden (the Changes
// count); live is the view's liveness of every slot in the range — base
// liveness copied in when the page is allocated, appended slots born
// live — so Alive reads one bit wherever a page exists. edges marks the
// base slots with appended edges, so adjacency reads probe the edge-delta
// maps only for those: a zoomed-out session wires its zoom nodes into
// base nodes, and without the bit every traversal of the session would
// probe the maps once per node it reads. A rollback clears the bit of a
// slot whose last appended edge it removes.
type livePage struct {
	set, live, edges [livePageWords]uint64
}

// slotBit returns the word index within a page and the bit mask of id.
func slotBit(id NodeID) (int, uint64) {
	return (int(id) >> 6) & (livePageWords - 1), 1 << (uint(id) & 63)
}

// baseMask returns the bits of liveness word w that cover base slots.
func (o *Overlay) baseMask(w int) uint64 {
	switch n := o.baseSlots - w*64; {
	case n >= 64:
		return ^uint64(0)
	case n <= 0:
		return 0
	default:
		return 1<<uint(n) - 1
	}
}

// baseWord returns word w of the base's liveness bitset restricted to
// the base's slots.
func (o *Overlay) baseWord(w int) uint64 {
	if w >= len(o.base.alive) {
		return 0
	}
	return o.base.alive[w] & o.baseMask(w)
}

// page returns the override page covering id, allocating it on first
// write.
func (o *Overlay) page(id NodeID) *livePage {
	p := int(id) >> livePageShift
	for p >= len(o.pages) {
		o.pages = append(o.pages, nil)
	}
	if pg := o.pages[p]; pg != nil {
		return pg
	}
	var pg *livePage
	if n := len(o.spare); n > 0 {
		pg, o.spare = o.spare[n-1], o.spare[:n-1]
	} else {
		pg = new(livePage)
	}
	pg.set, pg.edges = [livePageWords]uint64{}, [livePageWords]uint64{}
	for w := range pg.live {
		// Slots past the base are appended nodes, born live.
		gw := p*livePageWords + w
		pg.live[w] = o.baseWord(gw) | ^o.baseMask(gw)
	}
	o.pages[p] = pg
	return pg
}

// override records id's view liveness.
func (o *Overlay) override(id NodeID, live bool) {
	pg := o.page(id)
	w, b := slotBit(id)
	o.top = nil
	if pg.set[w]&b == 0 {
		pg.set[w] |= b
		o.overrides++
	}
	if live {
		pg.live[w] |= b
	} else {
		pg.live[w] &^= b
	}
}

// hasEdges reports whether AddEdge recorded an edge at base slot id.
func (o *Overlay) hasEdges(id NodeID) bool {
	if p := int(id) >> livePageShift; p < len(o.pages) {
		if pg := o.pages[p]; pg != nil {
			w, b := slotBit(id)
			return pg.edges[w]&b != 0
		}
	}
	return false
}

// NewOverlay returns an empty copy-on-write view over base. The caller
// must treat base as immutable for the overlay's lifetime (the contract
// SnapshotManager already imposes on shared cached processors).
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{base: base, baseSlots: base.TotalNodes()}
}

// Base returns the graph the overlay is layered over.
func (o *Overlay) Base() *Graph { return o.base }

// Reset rebinds the overlay to base with every delta cleared, keeping
// the already-allocated delta containers. Serving paths pool ephemeral
// overlays with it (one zoom preview per request), so steady-state
// request handling reuses scratch instead of allocating a fresh overlay
// and letting its maps and slices become garbage.
func (o *Overlay) Reset(base *Graph) {
	o.base = base
	o.baseSlots = base.TotalNodes()
	for _, pg := range o.pages {
		if pg != nil {
			o.spare = append(o.spare, pg)
		}
	}
	o.pages = o.pages[:0]
	o.overrides = 0
	o.liveDelta = 0
	o.added = o.added[:0]
	o.addedOut = o.addedOut[:0]
	o.addedIn = o.addedIn[:0]
	clear(o.extraOut)
	clear(o.extraIn)
	o.edgeLog = o.edgeLog[:0]
	clear(o.values)
	o.top = nil
}

// Changes returns the number of recorded deltas (liveness overrides,
// appended nodes, appended edges, and value overrides) — the session's
// memory cost in units of changes, not graph size. It counts what is
// overridden, not which pages exist: a zoom that was rolled back leaves
// its pages behind with no bit set. At 0 the view is its base, so read
// kernels answer from the base alone (reader.bare).
func (o *Overlay) Changes() int {
	return o.overrides + len(o.added) + len(o.edgeLog) + len(o.values)
}

// TotalNodes returns the number of node slots in the view (base + added).
func (o *Overlay) TotalNodes() int { return o.baseSlots + len(o.added) }

// NumNodes returns the number of live nodes in the view.
func (o *Overlay) NumNodes() int { return o.base.NumNodes() + o.liveDelta }

// NumEdges counts the edges between live nodes in the view.
func (o *Overlay) NumEdges() int { return o.reader().numEdges() }

// Node returns the node with the given id, with any overlay value
// override applied.
func (o *Overlay) Node(id NodeID) Node { return o.reader().node(id) }

// Alive reports whether the node is visible in the overlay view.
func (o *Overlay) Alive(id NodeID) bool {
	if p := int(id) >> livePageShift; p < len(o.pages) && o.pages[p] != nil {
		return o.pages[p].live[int(id)>>6&(livePageWords-1)]>>(uint(id)&63)&1 != 0
	}
	// Appended nodes are born live.
	return int(id) >= o.baseSlots || o.base.alive.get(int(id))
}

// kill marks a node dead in the view (the base is untouched).
func (o *Overlay) kill(id NodeID) {
	if o.Alive(id) {
		o.override(id, false)
		o.liveDelta--
	}
}

// revive marks a node live again in the view.
func (o *Overlay) revive(id NodeID) {
	if !o.Alive(id) {
		o.override(id, true)
		o.liveDelta++
	}
}

// killMask marks the live nodes of mask's bits in liveness word w dead,
// with kill's accounting.
func (o *Overlay) killMask(w int, mask uint64) {
	pg, i := o.page(NodeID(w*64)), w&(livePageWords-1)
	mask &= pg.live[i]
	o.top = nil
	o.overrides += bits.OnesCount64(mask &^ pg.set[i])
	o.liveDelta -= bits.OnesCount64(mask)
	pg.set[i] |= mask
	pg.live[i] &^= mask
}

// reviveMask marks the dead nodes of mask's bits in liveness word w live,
// with revive's accounting.
func (o *Overlay) reviveMask(w int, mask uint64) {
	pg, i := o.page(NodeID(w*64)), w&(livePageWords-1)
	mask &^= pg.live[i]
	o.top = nil
	o.overrides += bits.OnesCount64(mask &^ pg.set[i])
	o.liveDelta += bits.OnesCount64(mask)
	pg.set[i] |= mask
	pg.live[i] |= mask
}

// TypeOf returns a node's type in the view without assembling the Node.
func (o *Overlay) TypeOf(id NodeID) Type {
	t, _ := o.reader().typeOp(id)
	return t
}

// LabelOf returns a node's label in the view without assembling the Node
// (no value decode).
func (o *Overlay) LabelOf(id NodeID) string { return o.reader().label(id) }

// TypeOp returns a node's type and op in the view without assembling the
// Node.
func (o *Overlay) TypeOp(id NodeID) (Type, Op) { return o.reader().typeOp(id) }

// setValue records a value override for the node.
func (o *Overlay) setValue(id NodeID, v nested.Value) {
	if o.values == nil {
		o.values = make(map[NodeID]nested.Value)
	}
	o.values[id] = v
	o.top = nil
}

// AddNode appends a node to the view and returns its id. Ids continue
// from the base graph's slot range, matching what a mutated clone would
// assign.
func (o *Overlay) AddNode(n Node) NodeID {
	id := NodeID(o.TotalNodes())
	n = normalizeInv(n)
	n.ID = id
	o.added = append(o.added, n)
	o.addedOut = appendEmpty(o.addedOut)
	o.addedIn = appendEmpty(o.addedIn)
	o.liveDelta++
	o.top = nil
	return id
}

// appendEmpty appends an empty adjacency list to adj, reusing the storage
// of a list that Reset or a rollback truncated away.
func appendEmpty(adj [][]NodeID) [][]NodeID {
	if n := len(adj); n < cap(adj) {
		return append(adj, adj[:n+1][n][:0])
	}
	return append(adj, nil)
}

// AddEdge appends a directed edge to the view (dst is derived from src).
// Edges touching base nodes are recorded as deltas; the base adjacency is
// never modified.
func (o *Overlay) AddEdge(src, dst NodeID) {
	if int(src) < o.baseSlots {
		if o.extraOut == nil {
			o.extraOut = make(map[NodeID][]NodeID)
		}
		o.extraOut[src] = append(o.extraOut[src], dst)
		o.markEdges(src)
	} else {
		i := int(src) - o.baseSlots
		o.addedOut[i] = append(o.addedOut[i], dst)
	}
	if int(dst) < o.baseSlots {
		if o.extraIn == nil {
			o.extraIn = make(map[NodeID][]NodeID)
		}
		o.extraIn[dst] = append(o.extraIn[dst], src)
		o.markEdges(dst)
	} else {
		i := int(dst) - o.baseSlots
		o.addedIn[i] = append(o.addedIn[i], src)
	}
	o.edgeLog = append(o.edgeLog, [2]NodeID{src, dst})
	o.top = nil
}

// markEdges notes that base slot id has appended edges.
func (o *Overlay) markEdges(id NodeID) {
	w, b := slotBit(id)
	o.page(id).edges[w] |= b
}

// rollback undoes the overlay's newest zoom, rec, which no mutation has
// followed: it pops the zoom's edges and appended nodes, restores the
// liveness and override bits of the nodes it hid, and the counters.
func (o *Overlay) rollback(rec *ZoomRecord) {
	u := rec.undo
	for i := len(o.edgeLog) - 1; i >= u.edges; i-- {
		src, dst := o.edgeLog[i][0], o.edgeLog[i][1]
		o.popEdge(src, o.extraOut, o.addedOut, u.added)
		o.popEdge(dst, o.extraIn, o.addedIn, u.added)
	}
	o.edgeLog = o.edgeLog[:u.edges]
	o.added = o.added[:u.added]
	o.addedOut = o.addedOut[:u.added]
	o.addedIn = o.addedIn[:u.added]
	for _, m := range u.masks {
		pg, i := o.page(NodeID(m.w*64)), m.w&(livePageWords-1)
		pg.live[i] |= m.bits
		pg.set[i] &^= m.bits
	}
	for _, m := range u.kept {
		o.page(NodeID(m.w * 64)).set[m.w&(livePageWords-1)] |= m.bits
	}
	o.liveDelta, o.overrides = u.liveDelta, u.overrides
	o.top = u.prev
}

// popEdge removes the last edge appended at id to one direction of
// adjacency: extra for a base slot, added for an appended one (nothing
// for a slot the rollback truncates, at or past keep). A base slot left
// with no appended edge in either direction loses its edges bit.
func (o *Overlay) popEdge(id NodeID, extra map[NodeID][]NodeID, added [][]NodeID, keep int) {
	if i := int(id) - o.baseSlots; i >= 0 {
		if i < keep {
			added[i] = added[i][:len(added[i])-1]
		}
		return
	}
	l := extra[id][:len(extra[id])-1]
	extra[id] = l
	if len(l) == 0 && len(o.extraOut[id])+len(o.extraIn[id]) == 0 {
		w, b := slotBit(id)
		o.page(id).edges[w] &^= b
	}
}

// liveOverrides returns the overridden slots the view holds live, by
// liveness word: the only slots a zoom can hide whose override bit it
// finds already set.
func (o *Overlay) liveOverrides() []wordMask {
	var out []wordMask
	for p, pg := range o.pages {
		if pg == nil {
			continue
		}
		for w := range pg.set {
			if b := pg.set[w] & pg.live[w]; b != 0 {
				out = append(out, wordMask{p*livePageWords + w, b})
			}
		}
	}
	return out
}

// deltaAdj returns the overlay's adjacency deltas in direction d: the
// appended nodes' lists, and the edges appended to base nodes.
func (o *Overlay) deltaAdj(d dir) ([][]NodeID, map[NodeID][]NodeID) {
	if d == up {
		return o.addedIn, o.extraIn
	}
	return o.addedOut, o.extraOut
}

// orphanCandidates sets, in set, a superset of the view's orphans — live
// OpConst or TypeBaseTuple nodes without a live out-neighbor, which
// callers re-check — and, in sure, the candidates a sweep in id order may
// hide unchecked. set and sure cover at least TotalNodes() bits.
//
// The candidates are the base's orphans (built once per base version and
// shared), the in-neighbors of
// base nodes the view holds dead — any other orphan of the view had a
// live out-neighbor in the base that the overlay killed — and the slots
// the view holds live though the base does not, or that it appended.
//
// The base's flat orphans the view holds live, without appended edges,
// are sure: their base out-neighbors are dead in the base and stay dead
// in the view, and no node has an edge to them. Once the view holds any
// base-dead slot live, an out-neighbor may have come back, and none is.
func (o *Overlay) orphanCandidates(set, sure bitset) {
	orphans := o.base.baseOrphans()
	for i, w := range orphans.bits {
		set[i] |= w
	}
	copy(sure, orphans.flat)
	revivedBase := false
	for p, pg := range o.pages {
		if pg == nil {
			continue
		}
		for w := range pg.set {
			gw := p*livePageWords + w
			base := o.baseWord(gw)
			for dead := pg.set[w] &^ pg.live[w] & base; dead != 0; dead &= dead - 1 {
				id := NodeID(gw*64 + bits.TrailingZeros64(dead))
				for _, in := range o.base.in.raw(id, nil) {
					set.set(int(in))
				}
			}
			if revived := pg.set[w] & pg.live[w] &^ base; revived != 0 {
				set[gw] |= revived
				revivedBase = revivedBase || revived&o.baseMask(gw) != 0
			}
			if gw < len(sure) {
				sure[gw] &= pg.live[w] &^ pg.edges[w]
			}
		}
	}
	if revivedBase {
		clear(sure)
	}
	for i := range o.added {
		if n := &o.added[i]; n.Op == OpConst || n.Type == TypeBaseTuple {
			set.set(o.baseSlots + i)
		}
	}
	// The sweep skips dead candidates; dropping those the view holds dead
	// lets it hide a word of sure ones whole. (Where no page exists, the
	// base orphans are live and a dead in-neighbor is merely re-checked.)
	for p, pg := range o.pages {
		if pg == nil {
			continue
		}
		for w, live := range pg.live {
			if gw := p*livePageWords + w; gw < len(set) {
				set[gw] &= live
			}
		}
	}
}

// Out returns the live out-neighbors of id in the view, read-only like
// Graph.Out's.
func (o *Overlay) Out(id NodeID) []NodeID { return o.reader().live(down, id) }

// In returns the live in-neighbors of id in the view, read-only.
func (o *Overlay) In(id NodeID) []NodeID { return o.reader().live(up, id) }

// Nodes calls fn for every live node in id order; fn returning false
// stops iteration.
func (o *Overlay) Nodes(fn func(Node) bool) { o.reader().nodes(fn) }

// Invocation returns the invocation record with the given id. Records
// come from the base graph (sessions never add invocations) and must be
// treated as read-only.
func (o *Overlay) Invocation(id InvID) *Invocation { return o.base.Invocation(id) }

// NumInvocations returns the number of recorded invocations.
func (o *Overlay) NumInvocations() int { return o.base.NumInvocations() }

// Invocations calls fn for each invocation record.
func (o *Overlay) Invocations(fn func(*Invocation) bool) { o.base.Invocations(fn) }

// InvocationsOf returns the invocation ids of the given module name.
func (o *Overlay) InvocationsOf(module string) []InvID { return o.base.InvocationsOf(module) }

// ComputeStats walks the live view and tallies node classes and types.
func (o *Overlay) ComputeStats() Stats { return o.reader().stats() }

// Fork returns an independent copy of the overlay over the same base
// graph: only the delta sets (liveness overrides, appended nodes and
// edges, value overrides) are copied, so forking costs O(changes) and
// never touches the base. Mutations of the fork and the original do not
// observe each other.
func (o *Overlay) Fork() *Overlay {
	c := &Overlay{base: o.base, baseSlots: o.baseSlots, overrides: o.overrides, liveDelta: o.liveDelta, top: o.top}
	if len(o.pages) > 0 {
		c.pages = make([]*livePage, len(o.pages))
		for i, pg := range o.pages {
			if pg != nil {
				cp := *pg
				c.pages[i] = &cp
			}
		}
	}
	c.added = append([]Node(nil), o.added...)
	c.addedOut = copyAdjacency(o.addedOut)
	c.addedIn = copyAdjacency(o.addedIn)
	c.extraOut = copyEdgeDeltas(o.extraOut)
	c.extraIn = copyEdgeDeltas(o.extraIn)
	c.edgeLog = append([][2]NodeID(nil), o.edgeLog...)
	if o.values != nil {
		c.values = make(map[NodeID]nested.Value, len(o.values))
		for k, v := range o.values {
			c.values[k] = v
		}
	}
	return c
}

func copyAdjacency(adj [][]NodeID) [][]NodeID {
	if adj == nil {
		return nil
	}
	out := make([][]NodeID, len(adj))
	for i, l := range adj {
		out[i] = append([]NodeID(nil), l...)
	}
	return out
}

func copyEdgeDeltas(m map[NodeID][]NodeID) map[NodeID][]NodeID {
	if m == nil {
		return nil
	}
	out := make(map[NodeID][]NodeID, len(m))
	for k, l := range m {
		out[k] = append([]NodeID(nil), l...)
	}
	return out
}

// Materialize builds a standalone Graph equal to the overlay view
// (useful for persisting a session's what-if state). It is the expensive
// operation overlays exist to avoid on the per-session hot path.
func (o *Overlay) Materialize() *Graph {
	c := o.base.Clone()
	o.applyTo(c)
	return c
}

// applyTo applies the overlay's deltas to c, a clone of its base: the
// appended nodes, then the appended edges in insertion order, the value
// overrides, and the liveness overrides. A sink on c observes them as
// the events the transformations stand for.
func (o *Overlay) applyTo(c *Graph) {
	for i := range o.added {
		c.AddNode(o.added[i])
	}
	for _, e := range o.edgeLog {
		c.AddEdge(e[0], e[1])
	}
	for id, v := range o.values {
		c.setValue(id, v)
	}
	for p, pg := range o.pages {
		if pg == nil {
			continue
		}
		for w, set := range pg.set {
			for ; set != 0; set &= set - 1 {
				b := bits.TrailingZeros64(set)
				id := NodeID((p*livePageWords+w)*64 + b)
				if pg.live[w]&(1<<uint(b)) != 0 {
					c.revive(id)
				} else {
					c.kill(id)
				}
			}
		}
	}
}
