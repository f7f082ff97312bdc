package provgraph

import (
	"math"
	"slices"
	"strconv"

	"lipstick/internal/nested"
	"lipstick/internal/semiring"
)

// DeletionResult reports which nodes a deletion propagation removed.
type DeletionResult struct {
	// Removed lists the removed nodes in propagation order, starting with
	// the explicitly deleted ones.
	Removed []NodeID
}

// Deleted reports whether the node was removed by the propagation. It
// scans Removed: the result carries no membership index.
func (r *DeletionResult) Deleted(id NodeID) bool { return slices.Contains(r.Removed, id) }

// Size returns the number of removed nodes.
func (r *DeletionResult) Size() int { return len(r.Removed) }

// PropagateDeletion computes the effect of deleting the given nodes per
// Definition 4.2 without modifying the graph: starting from the deleted
// nodes, it repeatedly removes every node for which either (1) all of its
// incoming edges were deleted, or (2) the node is labeled · or ⊗ and at
// least one of its incoming edges was deleted. Nodes with no incoming
// edges (tokens, invocation nodes, constants) are never removed by rule (1).
func (g *Graph) PropagateDeletion(ids ...NodeID) *DeletionResult {
	return propagateDeletionOf(g.reader(), ids...)
}

// PropagateDeletion computes the deletion effect in the overlay view.
func (o *Overlay) PropagateDeletion(ids ...NodeID) *DeletionResult {
	return propagateDeletionOf(o.reader(), ids...)
}

func propagateDeletionOf(r reader, ids ...NodeID) *DeletionResult {
	s := getVisit(r.total())
	defer putVisit(s)
	propagateDeletion(r, s, ids...)
	res := &DeletionResult{}
	if len(s.queue) > 0 {
		res.Removed = slices.Clone(s.queue)
	}
	return res
}

// propagateDeletion runs the propagation on s, leaving the removed nodes
// in propagation order in s.queue. It touches only the cascade: a node's
// live in-degree is counted when an edge from a removed node first
// reaches it (mark[id] == epoch then means deg[id] is set; -1 marks a
// removed node). The view does not change during a propagation, so the
// lazy count equals an eager one taken up front. On a view that is its
// base, without a dead slot, every in-edge is live, so the count is the
// adjacency's length and the in-list is not read.
func propagateDeletion(r reader, s *visitScratch, ids ...NodeID) {
	r = r.bare()
	s.deg = grown(s.deg, r.total())
	remove := func(id NodeID) {
		s.mark[id], s.deg[id] = s.epoch, -1
		s.queue = append(s.queue, id)
	}
	for _, id := range ids {
		if !s.removed(id) && r.alive(id) {
			remove(id)
		}
	}
	for head := 0; head < len(s.queue); head++ {
		for _, dst := range r.adj(down, s.queue[head], &s.adj) {
			if !r.alive(dst) {
				continue
			}
			if s.mark[dst] != s.epoch {
				// First touch. The edge from the removed (live) source is
				// among the live in-edges counted, so the count is >= 1 and
				// reaching 0 below means every incoming edge was deleted.
				var d int32
				if r.ov == nil && r.g.dead == 0 {
					d = int32(r.g.in.count(dst))
				} else {
					for _, src := range r.adj(up, dst, &s.adj2) {
						if r.alive(src) {
							d++
						}
					}
				}
				s.mark[dst], s.deg[dst] = s.epoch, d
			} else if s.deg[dst] < 0 {
				continue // already removed
			}
			s.deg[dst]--
			_, op := r.typeOp(dst)
			// Rule (1): all incoming edges deleted. Rule (2): · or ⊗ with a
			// deleted incoming edge. Black-box nodes are included: a UDF's
			// output jointly depends on all of its inputs (the
			// coarse-grained assumption the paper applies to UDF portions
			// of a module), so they behave as products under deletion.
			if s.deg[dst] == 0 || op == OpTimes || op == OpTensor || op == OpBB {
				remove(dst)
			}
		}
	}
}

// removed reports whether the propagation run on s removed id.
func (s *visitScratch) removed(id NodeID) bool {
	return s.mark[id] == s.epoch && s.deg[id] < 0
}

// Delete applies a deletion propagation to the overlay, recording the
// kills as deltas; the base graph is untouched.
func (o *Overlay) Delete(ids ...NodeID) *DeletionResult {
	res := propagateDeletionOf(o.reader(), ids...)
	for _, id := range res.Removed {
		o.kill(id)
	}
	return res
}

// RecomputedAggregate is the what-if value of an aggregate node after a
// deletion (Example 4.3: "the COUNT aggregate is now applied to a single
// value ... we can easily re-compute its value").
type RecomputedAggregate struct {
	Node NodeID
	// Op is the aggregate operation name (SUM, COUNT, MIN, MAX, AVG).
	Op string
	// Before is the original value carried by the node.
	Before nested.Value
	// After is the recomputed value over surviving contributions; Null
	// when no contribution survives and the operation has no identity
	// (MIN/MAX/AVG).
	After nested.Value
	// Survivors is the number of surviving ⊗ contributions.
	Survivors int
}

// RecomputeAggregates re-evaluates every live aggregate v-node of the
// overlay view from its surviving ⊗ in-neighbors, records the changed
// values as deltas, and returns the nodes whose value changed. It
// requires the full (non-simplified) aggregation construction, in which
// each ⊗ node has a constant-value in-neighbor.
func (o *Overlay) RecomputeAggregates() []RecomputedAggregate {
	var out []RecomputedAggregate
	total := o.TotalNodes()
	for id := 0; id < total; id++ {
		if !o.Alive(NodeID(id)) {
			continue
		}
		n := o.Node(NodeID(id))
		if n.Op != OpAgg {
			continue
		}
		op, ok := semiring.ParseAggOp(n.Label)
		if !ok {
			continue
		}
		val, survivors, computed := recomputeAggOf(o.reader(), NodeID(id), op)
		rec := RecomputedAggregate{Node: NodeID(id), Op: n.Label, Before: n.Value, Survivors: survivors}
		if computed {
			rec.After = val
		}
		if !rec.After.Equal(rec.Before) {
			out = append(out, rec)
			o.setValue(NodeID(id), rec.After)
		}
	}
	return out
}

// recomputeAggOf folds the surviving ⊗ children of an aggregate node.
func recomputeAggOf(r reader, id NodeID, op semiring.AggOp) (nested.Value, int, bool) {
	sum, cnt := 0.0, 0
	lo, hi := math.Inf(1), math.Inf(-1)
	allInt := true
	for _, in := range r.adj(up, id, nil) {
		if !r.alive(in) {
			continue
		}
		if _, op := r.typeOp(in); op != OpTensor {
			continue
		}
		// The tensor's constant in-neighbor holds the aggregated value.
		var val nested.Value
		found := false
		for _, tin := range r.adj(up, in, nil) {
			if _, op := r.typeOp(tin); op == OpConst && r.alive(tin) {
				val = r.node(tin).Value
				found = true
				break
			}
		}
		if !found {
			continue
		}
		f, ok := val.Numeric()
		if !ok {
			continue
		}
		if val.Kind() != nested.KindInt {
			allInt = false
		}
		cnt++
		sum += f
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
	}
	if cnt == 0 {
		switch op {
		case semiring.AggSum:
			return nested.Int(0), 0, true
		case semiring.AggCount:
			return nested.Int(0), 0, true
		default:
			return nested.Null(), 0, true
		}
	}
	mk := func(f float64) nested.Value {
		if allInt && f == math.Trunc(f) {
			return nested.Int(int64(f))
		}
		return nested.Float(f)
	}
	switch op {
	case semiring.AggSum:
		return mk(sum), cnt, true
	case semiring.AggCount:
		return nested.Int(int64(cnt)), cnt, true
	case semiring.AggMin:
		return mk(lo), cnt, true
	case semiring.AggMax:
		return mk(hi), cnt, true
	case semiring.AggAvg:
		return nested.Float(sum / float64(cnt)), cnt, true
	default:
		return nested.Null(), cnt, false
	}
}

// Expr reconstructs the provenance expression denoted by a p-node, reading
// the graph bottom-up: base tuples and workflow inputs become tokens,
// + / · / δ nodes become the corresponding operations, and module
// input/output/state nodes become products of their in-neighbors (they are
// ·-labeled). Invocation and zoom nodes become tokens named after the
// module. The result ties the graph representation back to the semiring
// formalism of Section 2.3 and is used for differential testing of
// deletion propagation.
func (g *Graph) Expr(id NodeID) semiring.Expr {
	return exprOf(g.reader(), id, make(map[NodeID]semiring.Expr))
}

// Expr reconstructs a node's provenance expression in the overlay view.
func (o *Overlay) Expr(id NodeID) semiring.Expr {
	return exprOf(o.reader(), id, make(map[NodeID]semiring.Expr))
}

func exprOf(r reader, id NodeID, memo map[NodeID]semiring.Expr) semiring.Expr {
	if e, ok := memo[id]; ok {
		return e
	}
	if !r.alive(id) {
		return semiring.Zero{}
	}
	n := r.node(id)
	// Guard against (impossible) cycles while memoizing.
	memo[id] = semiring.Zero{}
	var children []semiring.Expr
	for _, in := range r.adj(up, id, nil) {
		// Value nodes do not contribute to the p-side expression.
		if r.alive(in) && r.class(in) != ClassV {
			children = append(children, exprOf(r, in, memo))
		}
	}
	var e semiring.Expr
	switch {
	case isTokenType(n.Type):
		e = semiring.T(tokenName(n))
	case n.Op == OpPlus:
		e = semiring.Add(children...)
	case n.Op == OpDelta:
		e = semiring.Dedup(semiring.Add(children...))
	case n.Op == OpTimes, n.Type == TypeModuleInput, n.Type == TypeModuleOutput, n.Type == TypeState:
		e = semiring.Mul(children...)
	case n.Op == OpBB:
		// Black box: joint dependence on all inputs.
		e = semiring.Mul(children...)
	default:
		e = semiring.Mul(children...)
	}
	memo[id] = e
	return e
}

func tokenName(n Node) string {
	if n.Label != "" {
		return n.Label
	}
	return "n" + strconv.Itoa(int(n.ID))
}
