package provgraph

// Reference kernels: the subgraph, deletion-propagation, Definition 4.1
// and ZoomOut implementations the O(answer) kernels replaced, kept
// algorithm-for-algorithm (map membership, eager in-degrees of every
// node, per-call scans of every invocation record, a sweep of every slot
// for orphans) as the oracle of the differential tests. Only the view
// access is adapted to the slice adjacency primitives.

func refEachOut(v view, id NodeID, fn func(NodeID) bool) {
	for _, n := range v.outRaw(id, nil) {
		if !fn(n) {
			return
		}
	}
}

func refEachIn(v view, id NodeID, fn func(NodeID) bool) {
	for _, n := range v.inRaw(id, nil) {
		if !fn(n) {
			return
		}
	}
}

func refEachLiveIn(v view, id NodeID, fn func(NodeID) bool) {
	refEachIn(v, id, func(n NodeID) bool {
		if !v.Alive(n) {
			return true
		}
		return fn(n)
	})
}

func refEachLiveOut(v view, id NodeID, fn func(NodeID) bool) {
	refEachOut(v, id, func(n NodeID) bool {
		if !v.Alive(n) {
			return true
		}
		return fn(n)
	})
}

func refHasLiveOut(v view, id NodeID) bool {
	found := false
	refEachOut(v, id, func(n NodeID) bool {
		if v.Alive(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// refBFS is the sequential BFS with a map visited set.
func refBFS(v view, id NodeID, each func(view, NodeID, func(NodeID) bool)) []NodeID {
	seen := map[NodeID]bool{id: true}
	queue := []NodeID{id}
	var out []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		each(v, cur, func(next NodeID) bool {
			if v.Alive(next) && !seen[next] {
				seen[next] = true
				out = append(out, next)
				queue = append(queue, next)
			}
			return true
		})
	}
	return out
}

func refSubgraphOf(v view, id NodeID) []NodeID {
	member := map[NodeID]bool{id: true}
	order := []NodeID{id}
	add := func(n NodeID) {
		if !member[n] {
			member[n] = true
			order = append(order, n)
		}
	}
	for _, n := range refBFS(v, id, refEachIn) {
		add(n)
	}
	descendants := refBFS(v, id, refEachOut)
	for _, n := range descendants {
		add(n)
	}
	for _, d := range descendants {
		refEachLiveIn(v, d, func(parent NodeID) bool {
			refEachLiveOut(v, parent, func(sib NodeID) bool {
				if sib != d {
					add(sib)
				}
				return true
			})
			return true
		})
	}
	return order
}

func refPropagateDeletionOf(v view, ids ...NodeID) []NodeID {
	var removedOrder []NodeID
	removed := map[NodeID]bool{}
	total := v.TotalNodes()
	indeg := make([]int32, total)
	hadIn := make([]bool, total)
	for id := 0; id < total; id++ {
		if !v.Alive(NodeID(id)) {
			continue
		}
		var d int32
		refEachIn(v, NodeID(id), func(src NodeID) bool {
			if v.Alive(src) {
				d++
			}
			return true
		})
		indeg[id] = d
		hadIn[id] = d > 0
	}
	var queue []NodeID
	remove := func(id NodeID) {
		if removed[id] || !v.Alive(id) {
			return
		}
		removed[id] = true
		removedOrder = append(removedOrder, id)
		queue = append(queue, id)
	}
	for _, id := range ids {
		remove(id)
	}
	for head := 0; head < len(queue); head++ {
		refEachOut(v, queue[head], func(dst NodeID) bool {
			if !v.Alive(dst) || removed[dst] {
				return true
			}
			indeg[dst]--
			op := v.Node(dst).Op
			switch {
			case indeg[dst] == 0 && hadIn[dst]:
				remove(dst)
			case op == OpTimes || op == OpTensor || op == OpBB:
				remove(dst)
			}
			return true
		})
	}
	return removedOrder
}

func refIntermediateNodesOf(v view, modules map[string]bool) []NodeID {
	var starts []NodeID
	invocationsDo(v, func(inv *Invocation) bool {
		if modules[inv.Module] {
			starts = append(starts, inv.Inputs...)
			starts = append(starts, inv.States...)
		}
		return true
	})
	visited := make([]bool, v.TotalNodes())
	queue := make([]NodeID, 0, len(starts))
	for _, s := range starts {
		if v.Alive(s) && !visited[s] {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	var intermediates []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		refEachOut(v, cur, func(next NodeID) bool {
			if visited[next] || !v.Alive(next) {
				return true
			}
			if v.Node(next).Type == TypeModuleOutput {
				return true
			}
			visited[next] = true
			intermediates = append(intermediates, next)
			queue = append(queue, next)
			return true
		})
	}
	return intermediates
}

func refZoomOutOf(mv mutableView, modules ...string) *ZoomRecord {
	modSet := make(map[string]bool, len(modules))
	for _, m := range modules {
		modSet[m] = true
	}
	rec := &ZoomRecord{Modules: append([]string(nil), modules...)}
	for _, id := range refIntermediateNodesOf(mv, modSet) {
		mv.kill(id)
		rec.hidden = append(rec.hidden, id)
	}
	invocationsDo(mv, func(inv *Invocation) bool {
		if !modSet[inv.Module] {
			return true
		}
		for _, s := range inv.States {
			if !mv.Alive(s) {
				continue
			}
			baseCandidates := liveIn(mv, s)
			mv.kill(s)
			rec.hidden = append(rec.hidden, s)
			for _, b := range baseCandidates {
				if mv.Node(b).Type != TypeBaseTuple || !mv.Alive(b) {
					continue
				}
				if !refHasLiveOut(mv, b) {
					mv.kill(b)
					rec.hidden = append(rec.hidden, b)
				}
			}
		}
		return true
	})
	total := mv.TotalNodes()
	for id := 0; id < total; id++ {
		if !mv.Alive(NodeID(id)) {
			continue
		}
		n := mv.Node(NodeID(id))
		if (n.Op == OpConst || n.Type == TypeBaseTuple) && !refHasLiveOut(mv, NodeID(id)) {
			mv.kill(NodeID(id))
			rec.hidden = append(rec.hidden, NodeID(id))
		}
	}
	invocationsDo(mv, func(inv *Invocation) bool {
		if !modSet[inv.Module] {
			return true
		}
		z := mv.AddNode(Node{Class: ClassP, Type: TypeZoom, Label: inv.Module, Inv: inv.ID})
		rec.zoomNodes = append(rec.zoomNodes, z)
		for _, in := range inv.Inputs {
			if mv.Alive(in) {
				mv.AddEdge(in, z)
			}
		}
		for _, out := range inv.Outputs {
			if mv.Alive(out) {
				mv.AddEdge(z, out)
			}
		}
		return true
	})
	return rec
}
