package provgraph

import (
	"slices"
	"sync"
)

// The traversal queries are implemented once, generically over the view
// primitives, so a copy-on-write Overlay answers them identically to a
// materialized Graph (see view.go).

// visitScratch is pooled per-traversal working memory: an epoch-stamped
// visited set (mark[id] == epoch means visited this traversal — bumping
// the epoch resets the whole set without touching memory), a reusable
// BFS queue, and adjacency buffers for the views' split lists. Deletion
// propagation also keeps its lazily counted in-degrees in deg (valid
// where mark[id] == epoch), and ZoomOut its orphan candidates in cand
// (the sure ones in sure) and its hidden list in ids. ExprString numbers
// the nodes it reaches in deg (valid where mark[id] == epoch), keeps
// their rendering state in expr, the contributing children of its sums,
// products and δs in kids, and renders into text. Pooling keeps the
// query kernels from allocating O(graph) scratch per call; allocations
// scale with the result set only. The pool, not the view, owns the
// scratch: concurrent readers traverse the same graph under a shared
// read lock, so per-view scratch would race.
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
// headroom: a session's slot count grows with every zoom it installs, and
// an exact fit would reallocate on each call.
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
func (g *Graph) Ancestors(id NodeID) []NodeID { return ancestorsOf(g, id) }

// Ancestors returns the live ancestors of id in the overlay view.
func (o *Overlay) Ancestors(id NodeID) []NodeID { return ancestorsOf(o, id) }

func ancestorsOf(v view, id NodeID) []NodeID {
	return bfsOf(v, id, view.inRaw)
}

// Descendants returns the set of live nodes reachable from id (the data
// derived from id), excluding id itself.
func (g *Graph) Descendants(id NodeID) []NodeID { return descendantsOf(g, id) }

// Descendants returns the live descendants of id in the overlay view.
func (o *Overlay) Descendants(id NodeID) []NodeID { return descendantsOf(o, id) }

func descendantsOf(v view, id NodeID) []NodeID {
	return bfsOf(v, id, view.outRaw)
}

// adjFunc is one adjacency direction of a view (view.outRaw or
// view.inRaw).
type adjFunc func(v view, id NodeID, buf *[]NodeID) []NodeID

// bfsOf walks the given adjacency from id, returning visited live nodes in
// BFS order (excluding the start node). Scratch comes from the pool, so
// only the result slice is allocated.
func bfsOf(v view, id NodeID, adj adjFunc) []NodeID {
	s := getVisit(v.TotalNodes())
	defer putVisit(s)
	bfsInto(v, s, id, adj)
	if len(s.queue) == 1 {
		return nil
	}
	return slices.Clone(s.queue[1:])
}

// bfsInto runs the BFS on s (resetting its visited set), leaving id
// followed by the visited live nodes, in BFS order, in s.queue. Once the
// pending queue outgrows the parallel threshold, whole segments are
// expanded by the frontier-parallel batch path (traverse_parallel.go),
// whose merge keeps the order byte-identical to this sequential loop.
func bfsInto(v view, s *visitScratch, id NodeID, adj adjFunc) {
	s.reset()
	s.queue = append(s.queue[:0], id)
	s.visit(id)
	for head := 0; head < len(s.queue); {
		if len(s.queue)-head >= parallelFrontierThreshold {
			end := len(s.queue)
			expandFrontierParallel(v, s, head, adj)
			head = end
			continue
		}
		cur := s.queue[head]
		head++
		for _, next := range adj(v, cur, &s.adj) {
			if v.Alive(next) && s.visit(next) {
				s.queue = append(s.queue, next)
			}
		}
	}
}

// DependsOn reports whether the existence of node a depends on node b
// (Section 4.3): it propagates the deletion of b and checks whether a
// survives.
func (g *Graph) DependsOn(a, b NodeID) bool { return dependsOnIn(g, a, b) }

// DependsOn answers the dependency query in the overlay view.
func (o *Overlay) DependsOn(a, b NodeID) bool { return dependsOnIn(o, a, b) }

func dependsOnIn(v view, a, b NodeID) bool {
	total := v.TotalNodes()
	s := getVisit(total)
	defer putVisit(s)
	propagateDeletion(v, s, b)
	return a >= 0 && int(a) < total && s.removed(a)
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
func (g *Graph) Subgraph(id NodeID) *SubgraphResult { return subgraphOf(g, id) }

// Subgraph answers the subgraph query in the overlay view.
func (o *Overlay) Subgraph(id NodeID) *SubgraphResult { return subgraphOf(o, id) }

// subgraphOf discovers the root, then its ancestors in BFS order, then
// its descendants in BFS order, then the siblings of each descendant in
// (descendant, parent, child) order, each node once. A parent's children
// are swept at most once: the first sweep adds every live sibling, so a
// later descendant of the same parent would add nothing, and skipping it
// leaves the order unchanged.
func subgraphOf(v view, id NodeID) *SubgraphResult {
	total := v.TotalNodes()
	member := getVisit(total)
	defer putVisit(member)
	walk := getVisit(total)
	defer putVisit(walk)

	// member.queue accumulates the answer in discovery order.
	add := func(n NodeID) {
		if member.visit(n) {
			member.queue = append(member.queue, n)
		}
	}
	add(id)
	bfsInto(v, walk, id, view.inRaw)
	for _, n := range walk.queue[1:] {
		add(n)
	}
	bfsInto(v, walk, id, view.outRaw)
	descendants := walk.queue[1:]
	for _, n := range descendants {
		add(n)
	}
	// walk's marks (the root and its descendants) now serve as the set
	// of parents already swept: a swept parent adds nothing new, and
	// neither does one of these, since a visited node's live children are
	// descendants, already members.
	for _, d := range descendants {
		for _, parent := range v.inRaw(d, &walk.adj) {
			if !v.Alive(parent) || !walk.visit(parent) {
				continue
			}
			for _, sib := range v.outRaw(parent, &walk.adj2) {
				if v.Alive(sib) {
					add(sib)
				}
			}
		}
	}
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
func (g *Graph) IsAcyclic() bool { return isAcyclicOf(g) }

// IsAcyclic verifies the overlay's live view is a DAG.
func (o *Overlay) IsAcyclic() bool { return isAcyclicOf(o) }

func isAcyclicOf(v view) bool {
	total := v.TotalNodes()
	indeg := make([]int, total)
	liveCount := 0
	queue := make([]NodeID, 0, total)
	var buf []NodeID
	for id := 0; id < total; id++ {
		if !v.Alive(NodeID(id)) {
			continue
		}
		liveCount++
		for _, in := range v.inRaw(NodeID(id), &buf) {
			if v.Alive(in) {
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
		for _, next := range v.outRaw(cur, &buf) {
			if !v.Alive(next) {
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
