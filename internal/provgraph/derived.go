package provgraph

import "slices"

// The derived state a Graph shares with the overlays layered over it:
// the orphan candidates ZoomOut sweeps and the memoized zoom plans.

// orphanSet marks the graph's orphans at one structural version: live
// OpConst or TypeBaseTuple nodes without a live out-neighbor. flat marks
// the orphans without any in-edge, live or dead: hiding one cannot orphan
// another node, which lets an overlay's sweep hide them a word at a time.
type orphanSet struct {
	version    uint64
	bits, flat bitset
}

// markOrphans sets the graph's orphans in set and those without in-edges
// in flat.
func (g *Graph) markOrphans(set, flat bitset) {
	var buf []NodeID
	r := g.reader()
	for i := 0; i < g.n; i++ {
		if !g.alive.get(i) || (g.op.at(i) != OpConst && g.typ.at(i) != TypeBaseTuple) {
			continue
		}
		if !hasLiveOut(r, NodeID(i), &buf) {
			set.set(i)
			if len(g.in.raw(NodeID(i), &buf)) == 0 {
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
// keeps ingesting between the overlays that serving paths layer over the
// same *Graph.
func (g *Graph) baseOrphans() *orphanSet {
	if s := g.orphanBits.Load(); s != nil && s.version == g.version {
		return s
	}
	s := &orphanSet{version: g.version, bits: newBitset(g.n), flat: newBitset(g.n)}
	g.markOrphans(s.bits, s.flat)
	g.orphanBits.Store(s)
	return s
}

// wordMask is one liveness word's worth of node ids: the set bits of
// word w cover ids w*64 to w*64+63.
type wordMask struct {
	w    int
	bits uint64
}

// zoomPlan is what ZoomOut hides over an overlay without deltas: the
// hidden ids in hiding order, and the same ids as liveness-word masks in
// word order. It is a pure function of the base and the zoomed
// invocations, so it is shared, read-only, by every such overlay and by
// the records their zooms return.
type zoomPlan struct {
	invs   []InvID // the key: ascending, distinct
	hidden []NodeID
	masks  []wordMask
}

// zoomPlans is the graph's zoom memo at one structural version, newest
// plan first.
type zoomPlans struct {
	version uint64
	plans   []*zoomPlan
}

// maxZoomPlans caps the memo: a plan holds one id per hidden node, and a
// base serves a handful of distinct zooms.
const maxZoomPlans = 16

// zoomPlan returns the memoized plan for the ascending invocation set
// invs, or nil. Like baseOrphans, the memo is stamped with g.version, so
// a graph mutated since (a live graph's ingest) never answers from it.
func (g *Graph) zoomPlan(invs []InvID) *zoomPlan {
	ps := g.zoomPlans.Load()
	if ps == nil || ps.version != g.version {
		return nil
	}
	for _, p := range ps.plans {
		if slices.Equal(p.invs, invs) {
			return p
		}
	}
	return nil
}

// memoZoomPlan builds the plan of a zoom of invs that hid hidden, and
// publishes it copy-on-write beside the plans already memoized at this
// version, dropping the oldest beyond maxZoomPlans. Concurrent overlays
// may race to publish; a compare-and-swap retry keeps every published
// set whole, and a plan another overlay published first is kept.
func (g *Graph) memoZoomPlan(invs []InvID, hidden []NodeID) *zoomPlan {
	p := &zoomPlan{invs: slices.Clone(invs), hidden: hidden, masks: wordMasks(hidden, g.n)}
	for {
		old := g.zoomPlans.Load()
		next := &zoomPlans{version: g.version, plans: []*zoomPlan{p}}
		if old != nil && old.version == g.version {
			for _, q := range old.plans {
				if slices.Equal(q.invs, invs) {
					return q
				}
			}
			next.plans = append(next.plans, old.plans[:min(len(old.plans), maxZoomPlans-1)]...)
		}
		if g.zoomPlans.CompareAndSwap(old, next) {
			return p
		}
	}
}

// wordMasks groups ids below total by liveness word, in word order.
func wordMasks(ids []NodeID, total int) []wordMask {
	if len(ids) == 0 {
		return nil
	}
	s := getVisit(0)
	defer putVisit(s)
	words := (total + 63) / 64
	s.cand = grown(s.cand, words)
	set := s.cand[:words]
	clear(set)
	n := 0
	for _, id := range ids {
		w := int(id) >> 6
		if set[w] == 0 {
			n++
		}
		set[w] |= 1 << (uint(id) & 63)
	}
	masks := make([]wordMask, 0, n)
	for w, b := range set {
		if b != 0 {
			masks = append(masks, wordMask{w, b})
		}
	}
	return masks
}
