package provgraph

import (
	"bytes"
	"slices"
	"strings"

	"lipstick/internal/nested"
)

// Frozen is a graph flattened into the columnar arrays the LPSK v3 format
// stores verbatim: dense per-node attribute columns, a sorted symbol
// table, CSR adjacency in both directions, invocation columns with anchor
// CSRs, and compacted value indexes. Package store writes a Frozen
// section-for-section and rebuilds a Graph from one whose arrays alias a
// mapped snapshot file (FromFrozen), which is what makes a multi-gigabyte
// snapshot open O(1): no per-node decode happens at all.
type Frozen struct {
	NumNodes int

	Class []Class
	Typ   []Type
	Op    []Op
	Label []uint32 // symbol ids
	Inv   []InvID
	ValIx []int32 // index into the value section; -1 = no stored value

	Alive []uint64 // packed liveness bits
	Dead  int

	OutOffs  []uint32 // len NumNodes+1
	OutEdges []NodeID
	InOffs   []uint32
	InEdges  []NodeID

	// Symbols, sorted lexicographically with symbol 0 = "", so a mapped
	// reader resolves a label to its id by binary search.
	SymOffs []uint32 // len NumSyms+1
	SymSlab []byte

	// Invocation columns (module/node-name as symbol ids) plus one anchor
	// CSR per anchor list.
	InvModule     []uint32
	InvNodeName   []uint32
	InvExec       []int32
	InvMNode      []NodeID
	AnchorInOffs  []uint32 // len NumInvocations+1
	AnchorIn      []NodeID
	AnchorOutOffs []uint32
	AnchorOut     []NodeID
	AnchorStOffs  []uint32
	AnchorSt      []NodeID

	// Values, compacted: ValueAt(i) yields the i-th stored value for
	// 0 <= i < NumValues. Freeze backs it with a heap slice; a mapped
	// reader backs it with a decode-on-access closure over the value blob.
	NumValues int
	ValueAt   func(int) nested.Value
}

// NumSyms returns the symbol count.
func (fr *Frozen) NumSyms() int {
	if len(fr.SymOffs) == 0 {
		return 0
	}
	return len(fr.SymOffs) - 1
}

// NumInvocations returns the invocation count.
func (fr *Frozen) NumInvocations() int { return len(fr.InvMNode) }

// Sym returns symbol id's bytes (a view into SymSlab).
func (fr *Frozen) Sym(id uint32) []byte {
	return fr.SymSlab[fr.SymOffs[id]:fr.SymOffs[id+1]]
}

// Freeze flattens g into its columnar form. The symbol table is rebuilt
// sorted (symbol ids are not stable across a freeze; node and invocation
// ids are). Values are compacted to the nodes that still reference one.
func Freeze(g *Graph) *Frozen {
	materializeInvs(g)
	n := g.n
	fr := &Frozen{
		NumNodes: n,
		Class:    make([]Class, n),
		Typ:      make([]Type, n),
		Op:       make([]Op, n),
		Label:    make([]uint32, n),
		Inv:      make([]InvID, n),
		ValIx:    make([]int32, n),
		Dead:     g.dead,
	}

	// Sorted symbol table over every label, module, and node-name string.
	// Node labels are graph symbol ids already: mark the ids in use, sort
	// their (string, id) pairs once, and remap the label column through
	// rank, a dense slice over the graph's symbol ids. The few distinct
	// invocation strings join the sort through a small map.
	rank := make([]uint32, max(g.syms.count(), 1))
	for i := 0; i < n; i++ {
		rank[g.label.at(i)] = 1
	}
	rank[0] = 0 // "" is symbol 0 in both tables
	type symPair struct {
		s  string
		id uint32 // graph symbol id; noSym for an invocation string
	}
	const noSym = ^uint32(0)
	var pairs []symPair
	for id := 1; id < len(rank); id++ {
		if rank[id] != 0 {
			pairs = append(pairs, symPair{g.syms.str(uint32(id)), uint32(id)})
		}
	}
	invSym := make(map[string]uint32)
	for i := 0; i < g.invocations.len(); i++ {
		rec := g.invocations.roPtr(i)
		invSym[rec.Module] = 0
		invSym[rec.NodeName] = 0
	}
	delete(invSym, "")
	for s := range invSym {
		pairs = append(pairs, symPair{s, noSym})
	}
	slices.SortFunc(pairs, func(a, b symPair) int { return strings.Compare(a.s, b.s) })
	fr.SymOffs = make([]uint32, 1, len(pairs)+2)
	fr.SymOffs = append(fr.SymOffs, 0) // symbol 0 = ""
	for i, p := range pairs {
		if i == 0 || p.s != pairs[i-1].s {
			fr.SymSlab = append(fr.SymSlab, p.s...)
			fr.SymOffs = append(fr.SymOffs, uint32(len(fr.SymSlab)))
		}
		sym := uint32(fr.NumSyms() - 1)
		if p.id == noSym {
			invSym[p.s] = sym
		} else {
			rank[p.id] = sym
		}
	}

	// Node columns, with values compacted in node order.
	var vals []nested.Value
	fr.Alive = make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		fr.Class[i] = g.class.at(i)
		fr.Typ[i] = g.typ.at(i)
		fr.Op[i] = g.op.at(i)
		fr.Label[i] = rank[g.label.at(i)]
		fr.Inv[i] = g.inv.at(i)
		if ix := g.valIx.at(i); ix >= 0 {
			fr.ValIx[i] = int32(len(vals))
			vals = append(vals, g.valueByIx(int(ix)))
		} else {
			fr.ValIx[i] = -1
		}
		if g.alive.get(i) {
			fr.Alive[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	fr.NumValues = len(vals)
	fr.ValueAt = func(i int) nested.Value { return vals[i] }

	fr.OutOffs, fr.OutEdges = freezeAdj(&g.out, n)
	fr.InOffs, fr.InEdges = inCSRFromOut(fr.OutOffs, fr.OutEdges, n)

	// Invocation columns and anchor CSRs.
	ni := g.invocations.len()
	fr.InvModule = make([]uint32, ni)
	fr.InvNodeName = make([]uint32, ni)
	fr.InvExec = make([]int32, ni)
	fr.InvMNode = make([]NodeID, ni)
	fr.AnchorInOffs = make([]uint32, ni+1)
	fr.AnchorOutOffs = make([]uint32, ni+1)
	fr.AnchorStOffs = make([]uint32, ni+1)
	for i := 0; i < ni; i++ {
		inv := g.invocations.roPtr(i)
		fr.InvModule[i] = invSym[inv.Module]
		fr.InvNodeName[i] = invSym[inv.NodeName]
		fr.InvExec[i] = int32(inv.Execution)
		fr.InvMNode[i] = inv.MNode
		fr.AnchorIn = append(fr.AnchorIn, inv.Inputs...)
		fr.AnchorOut = append(fr.AnchorOut, inv.Outputs...)
		fr.AnchorSt = append(fr.AnchorSt, inv.States...)
		fr.AnchorInOffs[i+1] = uint32(len(fr.AnchorIn))
		fr.AnchorOutOffs[i+1] = uint32(len(fr.AnchorOut))
		fr.AnchorStOffs[i+1] = uint32(len(fr.AnchorSt))
	}
	return fr
}

// freezeAdj flattens one adjacency direction to CSR, preserving per-node
// edge append order.
func freezeAdj(a *adjHalf, n int) ([]uint32, []NodeID) {
	offs := make([]uint32, n+1)
	total := 0
	for i := 0; i < n; i++ {
		total += a.count(NodeID(i))
		offs[i+1] = uint32(total)
	}
	edges := make([]NodeID, 0, total)
	for i := 0; i < n; i++ {
		a.each(NodeID(i), func(to NodeID) bool {
			edges = append(edges, to)
			return true
		})
	}
	return offs, edges
}

// inCSRFromOut derives the in-adjacency CSR from the out-CSR by scanning
// edges in (source id, out position) order. This is the canonical in-edge
// order: it is exactly what Reconstruct produces when decoding the legacy
// formats' flat edge list, so a graph opened from a v3 file traverses
// in-neighbors in the same sequence as one decoded from a v1/v2 file —
// queries whose answers expose visit order (BFS subgraphs, provenance
// expressions) stay byte-identical across formats.
func inCSRFromOut(outOffs []uint32, outEdges []NodeID, n int) ([]uint32, []NodeID) {
	offs := make([]uint32, n+1)
	for _, to := range outEdges {
		offs[to+1]++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	edges := make([]NodeID, len(outEdges))
	next := make([]uint32, n)
	copy(next, offs[:n])
	for src := 0; src < n; src++ {
		for j := outOffs[src]; j < outOffs[src+1]; j++ {
			to := outEdges[j]
			edges[next[to]] = NodeID(src)
			next[to]++
		}
	}
	return offs, edges
}

// FromFrozen rebuilds a Graph over a Frozen's arrays without copying any
// per-node data: the columns and CSR edges become the graph's read-only
// base regions. Only the liveness bitset is copied (one bit per node),
// since kill/revive are the common post-open mutations. Invocation
// records and the constant-interning map materialize lazily on first use;
// values resolve through fr.ValueAt. mapRef, if non-nil, is pinned for
// the graph's lifetime (it keeps an mmap alive).
//
// With a mapRef the symbol slab is copied to the heap — one copy of the
// distinct label bytes per open, none per label. Labels and module names
// are strings over the slab, and strings escape into query results that
// outlive the graph; the collector keeps a heap slab alive for them,
// whereas the mapping is released once the graph is collected.
func FromFrozen(fr *Frozen, mapRef any) *Graph {
	g := newEmpty()
	n := fr.NumNodes
	g.n = n
	g.class.base = fr.Class
	g.typ.base = fr.Typ
	g.op.base = fr.Op
	g.label.base = fr.Label
	g.inv = thawChunked(fr.Inv)
	g.valIx = thawChunked(fr.ValIx)
	g.syms.baseOffs = fr.SymOffs
	g.syms.baseSlab = fr.SymSlab
	if mapRef != nil {
		g.syms.baseSlab = bytes.Clone(fr.SymSlab)
	}
	g.alive = append(bitset(nil), fr.Alive...)
	g.dead = fr.Dead
	g.out = adjHalf{baseN: n, offs: fr.OutOffs, edges: fr.OutEdges}
	g.in = adjHalf{baseN: n, offs: fr.InOffs, edges: fr.InEdges}
	g.numEdges = len(fr.OutEdges)
	g.valBase = fr.NumValues
	g.valAt = fr.ValueAt
	g.frozenInvs = fr
	g.mapRef = mapRef
	return g
}

// materializeInvs builds the heap invocation records of a frozen-backed
// graph on first use. Anchor lists are copied (not aliased) so that later
// in-place edits can never write through a file mapping. Safe for
// concurrent readers: the build is once-guarded, and frozenInvs is never
// reassigned after construction.
func materializeInvs(g *Graph) {
	fr := g.frozenInvs
	if fr == nil {
		return
	}
	g.invOnce.Do(func() {
		ni := fr.NumInvocations()
		recs := chunked[Invocation]{epoch: 1}
		for i := 0; i < ni; i++ {
			recs.add(Invocation{
				ID:        InvID(i),
				Module:    g.syms.str(fr.InvModule[i]),
				NodeName:  g.syms.str(fr.InvNodeName[i]),
				Execution: int(fr.InvExec[i]),
				MNode:     fr.InvMNode[i],
				Inputs:    copyIDs(fr.AnchorIn[fr.AnchorInOffs[i]:fr.AnchorInOffs[i+1]]),
				Outputs:   copyIDs(fr.AnchorOut[fr.AnchorOutOffs[i]:fr.AnchorOutOffs[i+1]]),
				States:    copyIDs(fr.AnchorSt[fr.AnchorStOffs[i]:fr.AnchorStOffs[i+1]]),
			})
		}
		g.invocations = recs
	})
}

func copyIDs(ids []NodeID) []NodeID {
	if len(ids) == 0 {
		return nil
	}
	return append([]NodeID(nil), ids...)
}

// ensureConstIndex builds the constant-interning map on first use by
// scanning the OpConst nodes. Live nodes win over dead ones so ConstNode
// re-interns correctly after deletions. Once-guarded, like the lazy
// invocation materialization, so the build cannot race on a graph that
// several goroutines share.
func ensureConstIndex(g *Graph) {
	g.constOnce.Do(func() {
		m := make(map[constKey]NodeID)
		for i := 0; i < g.n; i++ {
			if g.op.at(i) != OpConst {
				continue
			}
			key := constKeyOf(g.nodeValue(i))
			if old, ok := m[key]; !ok || !g.alive.get(int(old)) {
				m[key] = NodeID(i)
			}
		}
		g.constIndex = m
	})
}

// internConst records an OpConst node in the interning map (first id
// wins, matching ConstNode's create-if-absent behavior).
func internConst(g *Graph, id NodeID, key constKey) {
	ensureConstIndex(g)
	if _, ok := g.constIndex[key]; !ok {
		g.constIndex[key] = id
	}
}

// Reconstruct rebuilds a graph from serialized parts: nodes in id order,
// edges, invocation records, and the ids of dead (transformed-away) nodes.
// It is the loading half of the legacy v1/v2 decode path (package store);
// the result uses the same columnar layout as a built graph, with
// adjacency landing directly in CSR form.
func Reconstruct(nodes []Node, edges [][2]NodeID, invs []Invocation, dead []NodeID) *Graph {
	g := newEmpty()
	n := len(nodes)
	g.n = n
	g.class.tail = make([]Class, n)
	g.typ.tail = make([]Type, n)
	g.op.tail = make([]Op, n)
	g.label.tail = make([]uint32, n)
	g.syms.init()
	g.alive = newBitset(n)
	for i := range nodes {
		nd := &nodes[i]
		g.class.tail[i] = nd.Class
		g.typ.tail[i] = nd.Type
		g.op.tail[i] = nd.Op
		g.label.tail[i] = g.syms.intern(nd.Label)
		g.inv.add(nd.Inv) // stored verbatim, no normalization
		if nd.Value.IsNull() {
			g.valIx.add(-1)
		} else {
			g.valIx.add(int32(len(g.vals)))
			g.vals = append(g.vals, nd.Value)
		}
		g.alive.set(i)
	}

	// Adjacency straight to CSR: count degrees, prefix-sum, fill in edge
	// order (which preserves per-node append order).
	outOffs := make([]uint32, n+1)
	inOffs := make([]uint32, n+1)
	for _, e := range edges {
		outOffs[e[0]+1]++
		inOffs[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		outOffs[i+1] += outOffs[i]
		inOffs[i+1] += inOffs[i]
	}
	outEdges := make([]NodeID, len(edges))
	inEdges := make([]NodeID, len(edges))
	outNext := append([]uint32(nil), outOffs[:n]...)
	inNext := append([]uint32(nil), inOffs[:n]...)
	for _, e := range edges {
		outEdges[outNext[e[0]]] = e[1]
		outNext[e[0]]++
		inEdges[inNext[e[1]]] = e[0]
		inNext[e[1]]++
	}
	g.out = adjHalf{baseN: n, offs: outOffs, edges: outEdges}
	g.in = adjHalf{baseN: n, offs: inOffs, edges: inEdges}
	g.numEdges = len(edges)

	for i, inv := range invs {
		inv.ID = InvID(i)
		// Share the interned bytes so duplicate module names cost one copy.
		inv.Module = g.syms.str(g.syms.intern(inv.Module))
		inv.NodeName = g.syms.str(g.syms.intern(inv.NodeName))
		g.invocations.add(inv)
	}
	for _, id := range dead {
		if g.alive.get(int(id)) {
			g.alive.clear(int(id))
			g.dead++
		}
	}
	return g
}
