package provgraph

// The Graph's view primitives and the orphan candidates ZoomOut sweeps.

// orphanSet marks the graph's orphans at one structural version: live
// OpConst or TypeBaseTuple nodes without a live out-neighbor.
type orphanSet struct {
	version uint64
	bits    bitset
}

func (g *Graph) typeOp(id NodeID) (Type, Op) { return g.typ.at(int(id)), g.op.at(int(id)) }

func (g *Graph) classOf(id NodeID) Class { return g.class.at(int(id)) }

// TypeOf returns a node's type from the type column, without assembling
// the Node.
func (g *Graph) TypeOf(id NodeID) Type { return g.typ.at(int(id)) }

// LabelOf returns a node's label from the label column, without
// assembling the Node (no value decode).
func (g *Graph) LabelOf(id NodeID) string { return g.syms.str(g.label.at(int(id))) }

func (g *Graph) outRaw(id NodeID, buf *[]NodeID) []NodeID { return g.out.raw(id, buf) }

func (g *Graph) inRaw(id NodeID, buf *[]NodeID) []NodeID { return g.in.raw(id, buf) }

// orphanCandidates marks the graph's orphans with one pass over the type
// and op columns. A graph that ZoomOut mutates in place has changed by
// the time it sweeps, so nothing is kept for the next call.
func (g *Graph) orphanCandidates(set bitset) {
	var buf []NodeID
	for i := 0; i < g.n; i++ {
		if !g.alive.get(i) || (g.op.at(i) != OpConst && g.typ.at(i) != TypeBaseTuple) {
			continue
		}
		if !hasLiveOut(g, NodeID(i), &buf) {
			set.set(i)
		}
	}
}

// baseOrphans returns the graph's orphans for the overlays layered over
// it, which never mutate it: the set is built on first use and shared by
// every overlay (and concurrent reader) of the same base through an
// atomic pointer. It is stamped with g.version because a graph is
// immutable only while overlays are layered over it: a live graph keeps
// ingesting, and QueryProcessor.ZoomOut mutates its graph in place,
// between the overlays that serving paths layer over the same *Graph.
func (g *Graph) baseOrphans() bitset {
	if s := g.orphanBits.Load(); s != nil && s.version == g.version {
		return s.bits
	}
	bits := newBitset(g.n)
	g.orphanCandidates(bits)
	g.orphanBits.Store(&orphanSet{version: g.version, bits: bits})
	return bits
}
