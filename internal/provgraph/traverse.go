package provgraph

import (
	"slices"
	"sync"
)

// The traversal queries are implemented once, over the reader of
// view.go, so a copy-on-write Overlay answers them identically to a
// materialized Graph: one BFS loop (expand) serves Ancestors, Descendants
// and Subgraph on both, reading the base's CSR and liveness words
// directly wherever the overlay has no delta.

// visitScratch is pooled per-traversal working memory: an epoch-stamped
// visited set (mark[id] == epoch means visited this traversal — bumping
// the epoch resets the whole set without touching memory), a reusable
// BFS queue, and adjacency buffers for the split lists reader.adj
// assembles. Deletion propagation also keeps its lazily counted in-degrees
// in deg (valid where mark[id] == epoch), and ZoomOut its orphan
// candidates in cand (the sure ones in sure) and its hidden list in ids.
// ExprString numbers the nodes it reaches in deg (valid where mark[id] ==
// epoch), keeps their rendering state in expr, the contributing children
// of its sums, products and δs in kids, and renders into text. Pooling
// keeps the query kernels from allocating O(graph) scratch per call;
// allocations scale with the result set only. The pool, not the view,
// owns the scratch: concurrent readers traverse the same graph under a
// shared read lock, so per-view scratch would race.
type visitScratch struct {
	epoch     uint32
	mark      []uint32
	deg       []int32
	cand      bitset
	sure      bitset
	queue     []NodeID
	ids       []NodeID
	adj, adj2 []NodeID
	expr      []exprSlot
	kids      []int32
	text      []byte
}

var visitPool = sync.Pool{New: func() any { return new(visitScratch) }}

// getVisit returns a scratch sized for total node slots with an empty
// visited set and queue.
func getVisit(total int) *visitScratch {
	s := visitPool.Get().(*visitScratch)
	if len(s.mark) < total {
		s.mark = grown(s.mark, total)
		s.epoch = 0
	}
	s.reset()
	s.queue = s.queue[:0]
	return s
}

func putVisit(s *visitScratch) { visitPool.Put(s) }

// grown returns s if it covers n slots, else a zeroed replacement with
// headroom: a session's slot count grows while it holds zooms out (a
// ZoomIn of the newest zoom gives the slots back), and an exact fit would
// reallocate on each call.
func grown[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return make([]T, n+n/8+64)
}

// reset empties the visited set, keeping the queue.
func (s *visitScratch) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, wipe once
		clear(s.mark)
		s.epoch = 1
	}
}

// visit marks id, reporting whether it was unseen.
func (s *visitScratch) visit(id NodeID) bool {
	if s.mark[id] == s.epoch {
		return false
	}
	s.mark[id] = s.epoch
	return true
}

// Ancestors returns the set of live nodes from which id is reachable
// (the data id depends on), excluding id itself.
func (g *Graph) Ancestors(id NodeID) []NodeID { return bfsOf(g.reader(), id, up) }

// Ancestors returns the live ancestors of id in the overlay view.
func (o *Overlay) Ancestors(id NodeID) []NodeID { return bfsOf(o.reader(), id, up) }

// Descendants returns the set of live nodes reachable from id (the data
// derived from id), excluding id itself.
func (g *Graph) Descendants(id NodeID) []NodeID { return bfsOf(g.reader(), id, down) }

// Descendants returns the live descendants of id in the overlay view.
func (o *Overlay) Descendants(id NodeID) []NodeID { return bfsOf(o.reader(), id, down) }

// dir is one adjacency direction: up follows in-edges (to ancestors),
// down follows out-edges (to descendants).
type dir bool

const (
	up   dir = false
	down dir = true
)

// half returns the graph's adjacency in direction d.
func (g *Graph) half(d dir) *adjHalf {
	if d == up {
		return &g.in
	}
	return &g.out
}

// bfsOf walks direction d from id, returning visited live nodes in BFS
// order (excluding the start node). Scratch comes from the pool, so only
// the result slice is allocated.
func bfsOf(r reader, id NodeID, d dir) []NodeID {
	s := getVisit(r.total())
	defer putVisit(s)
	bfsInto(r, s, id, d)
	if len(s.queue) == 1 {
		return nil
	}
	return slices.Clone(s.queue[1:])
}

// bfsInto visits id, then walks direction d from it, appending id (if
// unseen) and the live nodes it reaches, in BFS order, to s.queue. Nodes
// already visited in s are neither appended nor expanded.
func bfsInto(r reader, s *visitScratch, id NodeID, d dir) {
	head := len(s.queue)
	if !s.visit(id) {
		return
	}
	s.queue = append(s.queue, id)
	walk(r, s, head, d, false)
}

// walk expands s.queue[head:] in direction d until no unvisited live node
// is left, appending what it reaches to s.queue. It expands one level at
// a time, which keeps the order of a FIFO walk. With skipOutputs set,
// module-output nodes are neither collected nor walked through.
func walk(r reader, s *visitScratch, head int, d dir, skipOutputs bool) {
	for head < len(s.queue) {
		end := len(s.queue)
		expand(r, s, s.queue[head:end], d, skipOutputs)
		head = end
	}
}

// expand appends to s.queue, in frontier and adjacency order, each live
// neighbor in direction d of the frontier's nodes that s has not visited,
// and marks it visited (skipping module outputs if asked to; see walk).
// A frontier node the base's CSR covers, without
// edges appended by an overlay, is read from offs/edges unless edges
// spilled since the load; any other goes through reader.adj. While the
// view is its base (a *Graph, or an overlay without deltas), liveness is
// the base's bitset alone; otherwise it is Overlay.Alive. frontier may
// alias s.queue: appends land past it.
func expand(r reader, s *visitScratch, frontier []NodeID, d dir, skipOutputs bool) {
	r = r.bare()
	a := r.g.half(d)
	alive, mark, epoch, queue := r.g.alive, s.mark, s.epoch, s.queue
	o := r.ov
	bare, csr := o == nil && !skipOutputs, a.spill == nil
	for _, cur := range frontier {
		var next []NodeID
		if i := int(cur); i < a.baseN && csr && (o == nil || !o.hasEdges(cur)) {
			next = a.edges[a.offs[i]:a.offs[i+1]]
		} else {
			next = r.adj(d, cur, &s.adj)
		}
		if bare {
			for _, n := range next {
				if alive[n>>6]&(1<<(uint(n)&63)) != 0 && mark[n] != epoch {
					mark[n] = epoch
					queue = append(queue, n)
				}
			}
			continue
		}
		for _, n := range next {
			if mark[n] == epoch {
				continue
			}
			if o == nil {
				if alive[n>>6]&(1<<(uint(n)&63)) == 0 {
					continue
				}
			} else if !o.Alive(n) {
				continue
			}
			if skipOutputs {
				if t, _ := r.typeOp(n); t == TypeModuleOutput {
					continue
				}
			}
			mark[n] = epoch
			queue = append(queue, n)
		}
	}
	s.queue = queue
}

// DependsOn reports whether the existence of node a depends on node b
// (Section 4.3): it propagates the deletion of b and checks whether a
// survives. It is false when either id is outside the graph.
func (g *Graph) DependsOn(a, b NodeID) bool { return dependsOn(g.reader(), a, b) }

// DependsOn answers the dependency query in the overlay view.
func (o *Overlay) DependsOn(a, b NodeID) bool { return dependsOn(o.reader(), a, b) }

func dependsOn(r reader, a, b NodeID) bool {
	total := r.total()
	if a < 0 || int(a) >= total || b < 0 || int(b) >= total {
		return false
	}
	s := getVisit(total)
	defer putVisit(s)
	propagateDeletion(r, s, b)
	return s.removed(a)
}

// SubgraphResult is the output of a subgraph query.
type SubgraphResult struct {
	Root NodeID
	// Nodes is the subgraph's node set, in discovery order, including the
	// root.
	Nodes []NodeID
}

// Contains reports whether id is part of the subgraph. It scans Nodes:
// the result carries no membership index, so answering a query costs
// only its node list.
func (r *SubgraphResult) Contains(id NodeID) bool { return slices.Contains(r.Nodes, id) }

// Size returns the number of nodes in the subgraph.
func (r *SubgraphResult) Size() int { return len(r.Nodes) }

// Subgraph implements the subgraph query of Section 5.1: given a node, it
// returns the subgraph induced by the node's ancestors, its descendants,
// and all siblings of its descendants (nodes sharing an in-neighbor with a
// descendant — the co-contributors needed to re-derive those descendants).
func (g *Graph) Subgraph(id NodeID) *SubgraphResult { return subgraphOf(g.reader(), id) }

// Subgraph answers the subgraph query in the overlay view.
func (o *Overlay) Subgraph(id NodeID) *SubgraphResult { return subgraphOf(o.reader(), id) }

// subgraphOf discovers the root, then its ancestors in BFS order, then
// its descendants in BFS order, then the siblings of each descendant in
// (descendant, parent, child) order, each node once. A parent's children
// are swept at most once: the first sweep adds every live sibling, so a
// later descendant of the same parent would add nothing, and skipping it
// leaves the order unchanged.
func subgraphOf(r reader, id NodeID) *SubgraphResult {
	total := r.total()
	member := getVisit(total)
	defer putVisit(member)
	walk := getVisit(total)
	defer putVisit(walk)

	// member.queue accumulates the answer in discovery order. The root's
	// ancestors and descendants are disjoint in a DAG, so the ancestor
	// walk runs straight into it; the descendant walk runs in walk, whose
	// marks must not hold the ancestors (see below).
	bfsInto(r, member, id, up)
	bfsInto(r, walk, id, down)
	descendants := walk.queue[1:]
	for _, n := range descendants {
		if member.visit(n) {
			member.queue = append(member.queue, n)
		}
	}
	// walk's marks (the root and its descendants) serve as the set of
	// parents already swept: a swept parent adds nothing new, and neither
	// does one of these, since a visited node's live children are
	// descendants, already members. Gathering the descendants' unswept
	// parents first, in (descendant, parent) order, and then their
	// children, keeps the (descendant, parent, child) order: which parents
	// are swept does not depend on the members.
	parents := len(walk.queue)
	expand(r, walk, descendants, up, false)
	expand(r, member, walk.queue[parents:], down, false)
	return &SubgraphResult{Root: id, Nodes: slices.Clone(member.queue)}
}

// Roots returns live nodes with no live in-edges (tokens, workflow inputs,
// invocation nodes, constants).
func (g *Graph) Roots() []NodeID {
	var out []NodeID
	for id := 0; id < g.n; id++ {
		if g.alive.get(id) && len(g.In(NodeID(id))) == 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Sinks returns live nodes with no live out-edges.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for id := 0; id < g.n; id++ {
		if g.alive.get(id) && len(g.Out(NodeID(id))) == 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// IsAcyclic verifies the live view is a DAG (an invariant of every
// construction in this package).
func (g *Graph) IsAcyclic() bool { return g.reader().isAcyclic() }

// IsAcyclic verifies the overlay's live view is a DAG.
func (o *Overlay) IsAcyclic() bool { return o.reader().isAcyclic() }

func (r reader) isAcyclic() bool {
	total := r.total()
	indeg := make([]int, total)
	liveCount := 0
	queue := make([]NodeID, 0, total)
	var buf []NodeID
	for id := 0; id < total; id++ {
		if !r.alive(NodeID(id)) {
			continue
		}
		liveCount++
		for _, in := range r.adj(up, NodeID(id), &buf) {
			if r.alive(in) {
				indeg[id]++
			}
		}
		if indeg[id] == 0 {
			queue = append(queue, NodeID(id))
		}
	}
	seen := 0
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, next := range r.adj(down, cur, &buf) {
			if !r.alive(next) {
				continue
			}
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	return seen == liveCount
}

// TopDownOrder returns all live nodes in a topological order (sources
// first); it panics if the live graph is cyclic.
func (g *Graph) TopDownOrder() []NodeID {
	indeg := make([]int, g.n)
	var queue []NodeID
	liveCount := 0
	for id := 0; id < g.n; id++ {
		if !g.alive.get(id) {
			continue
		}
		liveCount++
		indeg[id] = len(g.In(NodeID(id)))
		if indeg[id] == 0 {
			queue = append(queue, NodeID(id))
		}
	}
	order := make([]NodeID, 0, liveCount)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		for _, next := range g.Out(cur) {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if len(order) != liveCount {
		panic("provgraph: live graph is cyclic")
	}
	return order
}
