package provgraph

import "math/bits"

// The Graph's view primitives and the orphan candidates ZoomOut sweeps.

// orphanSet marks the graph's orphans at one structural version: live
// OpConst or TypeBaseTuple nodes without a live out-neighbor. flat marks
// the orphans without any in-edge, live or dead: hiding one cannot orphan
// another node, which lets an overlay's sweep hide them a word at a time.
type orphanSet struct {
	version    uint64
	bits, flat bitset
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
// the time it sweeps, so nothing is kept for the next call, and no
// candidate is sure.
func (g *Graph) orphanCandidates(set, _ bitset) { g.markOrphans(set, nil) }

// markOrphans sets the graph's orphans in set and, if flat is non-nil,
// those without in-edges in flat.
func (g *Graph) markOrphans(set, flat bitset) {
	var buf []NodeID
	for i := 0; i < g.n; i++ {
		if !g.alive.get(i) || (g.op.at(i) != OpConst && g.typ.at(i) != TypeBaseTuple) {
			continue
		}
		if !hasLiveOut(g, NodeID(i), &buf) {
			set.set(i)
			if flat != nil && len(g.in.raw(NodeID(i), &buf)) == 0 {
				flat.set(i)
			}
		}
	}
}

// baseOrphans returns the graph's orphan set for the overlays layered
// over it, which never mutate it: the set is built on first use and
// shared by every overlay (and concurrent reader) of the same base
// through an atomic pointer. It is stamped with g.version because a graph
// is immutable only while overlays are layered over it: a live graph
// keeps ingesting, and QueryProcessor.ZoomOut mutates its graph in place,
// between the overlays that serving paths layer over the same *Graph.
func (g *Graph) baseOrphans() *orphanSet {
	if s := g.orphanBits.Load(); s != nil && s.version == g.version {
		return s
	}
	s := &orphanSet{version: g.version, bits: newBitset(g.n), flat: newBitset(g.n)}
	g.markOrphans(s.bits, s.flat)
	g.orphanBits.Store(s)
	return s
}

// killMask applies kill to the set bits of liveness word w in ascending
// id order, emitting one event per node.
func (g *Graph) killMask(w int, mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		g.kill(NodeID(w*64 + bits.TrailingZeros64(mask)))
	}
}
