package core

import (
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// liveIndex is the postings index of a LiveGraph, organized so that
// publishing an immutable point-in-time snapshot of it is O(1) in the
// graph size. The old design kept one mutable map per dimension, which a
// snapshot would have to deep-copy key by key — O(distinct keys), and the
// label dimension can have a key per node. Instead the index is layered
// like a small LSM tree:
//
//   - The type and op dimensions have tiny fixed key domains (uint8), so
//     they are flat per-key append-only runs. A snapshot clips each run
//     to its current length; the writer's subsequent appends land at
//     indices at or past every clipped length (or in a reallocated
//     array), so shared runs are never overwritten.
//   - The string-keyed dimensions (label, module, module invocations)
//     are a stack of sealed, immutable run maps plus one private delta
//     map the writer inserts into. Publishing seals the delta — the map
//     itself becomes the newest immutable level and the writer starts a
//     fresh one — so a snapshot is just a copy of the level stack's
//     outer slice. Size-tiered compaction merges the newest two levels
//     (into brand-new maps and slices) whenever the newer rivals the
//     older, keeping lookups O(log n) levels deep.
//   - Postings recovered from a checkpoint snapshot (possibly an mmap'd
//     v3 section) sit below everything as an immutable base level that
//     is never copied, only consulted.
//
// The writer mutates the index under the live graph's write locks and
// nothing reads it directly: queries go through a published pubPostings,
// which is immutable and safe for any number of lock-free readers.
type liveIndex struct {
	base store.Postings // immutable checkpoint postings; nil for fresh graphs
	n    int            // node slots covered (tracks graph.TotalNodes())

	// byType/byOp: live append runs per key. A nil run means "not yet
	// adopted" — lookups fall through to base. The first append adopts
	// the base run by appending to a capacity-clipped alias, which
	// reallocates into writable memory exactly once per key.
	byType [256][]provgraph.NodeID
	byOp   [256][]provgraph.NodeID

	label   lsmRuns[provgraph.NodeID] // node ids ascend: concat merge
	module  lsmRuns[provgraph.NodeID] // EvSetNodeInv mid-inserts: sorted union
	modInvs lsmRuns[provgraph.InvID]  // invocation ids ascend: concat merge
}

// newLiveIndex builds the live index over a graph and its recovered
// checkpoint postings (nil when starting empty: everything the graph
// holds will arrive as replayed or ingested events).
func newLiveIndex(g *provgraph.Graph, base store.Postings) *liveIndex {
	ix := &liveIndex{base: base}
	if base != nil {
		ix.n = base.Coverage()
	} else {
		ix.n = g.TotalNodes()
	}
	ix.module.needSort = true
	return ix
}

// --- writer side (callers hold the live graph's write locks) ---

// addNode indexes one appended node; module is the node's invocation
// module ("" when unanchored).
func (ix *liveIndex) addNode(n *provgraph.Node, module string) {
	ix.n++
	appendRun(&ix.byType[n.Type], baseOrNil(ix.base, func(p store.Postings) []provgraph.NodeID { return p.TypeIDs(n.Type) }), n.ID)
	appendRun(&ix.byOp[n.Op], baseOrNil(ix.base, func(p store.Postings) []provgraph.NodeID { return p.OpIDs(n.Op) }), n.ID)
	if n.Label != "" {
		ix.label.add(n.Label, n.ID)
	}
	if module != "" {
		ix.module.insert(module, n.ID)
	}
}

// setNodeModule adds id to module's postings after an EvSetNodeInv
// back-reference (the node predates its invocation record, so its id may
// sit below already-indexed ones — hence the sorted insert).
func (ix *liveIndex) setNodeModule(module string, id provgraph.NodeID) {
	ix.module.insert(module, id)
}

// addInvocation indexes one opened invocation.
func (ix *liveIndex) addInvocation(module string, inv provgraph.InvID) {
	ix.modInvs.add(module, inv)
}

// appendRun appends id to a live run, adopting the base run on first
// touch. The clip forces the first append to reallocate instead of
// writing into base memory (which may be a shared or mapped snapshot).
func appendRun(run *[]provgraph.NodeID, base []provgraph.NodeID, id provgraph.NodeID) {
	if *run == nil && base != nil {
		*run = base[:len(base):len(base)]
	}
	*run = append(*run, id)
}

// baseOrNil lifts a base accessor over a possibly-nil base.
func baseOrNil[T any](base store.Postings, get func(store.Postings) []T) []T {
	if base == nil {
		return nil
	}
	return get(base)
}

// publish seals the delta of every string dimension and returns an
// immutable snapshot of the whole index. O(1) in graph size: flat runs
// are clipped, level stacks are outer-slice copies sharing the sealed
// maps, and the base is carried by reference.
func (ix *liveIndex) publish() *pubPostings {
	ix.label.seal()
	ix.module.seal()
	ix.modInvs.seal()
	pp := &pubPostings{
		base:    ix.base,
		n:       ix.n,
		label:   ix.label.snapshot(),
		module:  ix.module.snapshot(),
		modInvs: ix.modInvs.snapshot(),
	}
	for i, run := range ix.byType {
		pp.byType[i] = run[:len(run):len(run)]
	}
	for i, run := range ix.byOp {
		pp.byOp[i] = run[:len(run):len(run)]
	}
	return pp
}

// pubPostings is one published, immutable snapshot of a liveIndex. Any
// number of goroutines may query it without synchronization.
type pubPostings struct {
	base store.Postings
	n    int

	byType [256][]provgraph.NodeID
	byOp   [256][]provgraph.NodeID

	label   lsmSnapshot[provgraph.NodeID]
	module  lsmSnapshot[provgraph.NodeID]
	modInvs lsmSnapshot[provgraph.InvID]
}

// Coverage implements store.Postings.
func (p *pubPostings) Coverage() int { return p.n }

// TypeIDs implements store.Postings.
func (p *pubPostings) TypeIDs(t provgraph.Type) []provgraph.NodeID {
	if run := p.byType[t]; run != nil {
		return run
	}
	return baseOrNil(p.base, func(b store.Postings) []provgraph.NodeID { return b.TypeIDs(t) })
}

// OpIDs implements store.Postings.
func (p *pubPostings) OpIDs(o provgraph.Op) []provgraph.NodeID {
	if run := p.byOp[o]; run != nil {
		return run
	}
	return baseOrNil(p.base, func(b store.Postings) []provgraph.NodeID { return b.OpIDs(o) })
}

// LabelIDs implements store.Postings.
func (p *pubPostings) LabelIDs(label string) []provgraph.NodeID {
	return p.label.get(label, baseOrNil(p.base, func(b store.Postings) []provgraph.NodeID { return b.LabelIDs(label) }))
}

// ModuleIDs implements store.Postings.
func (p *pubPostings) ModuleIDs(module string) []provgraph.NodeID {
	return p.module.get(module, baseOrNil(p.base, func(b store.Postings) []provgraph.NodeID { return b.ModuleIDs(module) }))
}

// ModuleInvocations implements store.Postings.
func (p *pubPostings) ModuleInvocations(module string) []provgraph.InvID {
	return p.modInvs.get(module, baseOrNil(p.base, func(b store.Postings) []provgraph.InvID { return b.ModuleInvocations(module) }))
}

// lsmRuns is one string-keyed dimension's level stack plus write delta.
// Level maps are immutable once sealed; the delta belongs to the writer
// alone, so mid-list inserts there need no copy-on-write. needSort
// selects the cross-run merge: false means runs are disjoint ascending
// ranges in stack order (ids only ever append in ascending order) and
// concatenate; true (module dimension) means a run may interleave with
// older ones and lookups take a sorted union.
type lsmRuns[T ~int32] struct {
	needSort bool
	levels   []map[string][]T // sealed immutable runs, oldest first
	sizes    []int            // total ids per level, for compaction
	delta    map[string][]T   // private to the writer
	deltaN   int
}

// add appends v to key's delta run (v must be >= every id previously
// added under key; event streams deliver node and invocation ids in
// ascending order).
func (t *lsmRuns[T]) add(key string, v T) {
	if t.delta == nil {
		t.delta = make(map[string][]T)
	}
	t.delta[key] = append(t.delta[key], v)
	t.deltaN++
}

// insert adds v to key's delta run keeping it sorted and duplicate-free.
func (t *lsmRuns[T]) insert(key string, v T) {
	if t.delta == nil {
		t.delta = make(map[string][]T)
	}
	list := t.delta[key]
	if n := len(list); n == 0 || list[n-1] < v {
		t.delta[key] = append(list, v)
		t.deltaN++
		return
	}
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo] == v {
		return
	}
	list = append(list, 0)
	copy(list[lo+1:], list[lo:])
	list[lo] = v
	t.delta[key] = list
	t.deltaN++
}

// seal freezes the delta as the newest level and compacts. After seal
// the delta map is never written again, which is what lets snapshots
// share it by reference.
func (t *lsmRuns[T]) seal() {
	if t.deltaN == 0 {
		return
	}
	t.levels = append(t.levels, t.delta)
	t.sizes = append(t.sizes, t.deltaN)
	t.delta = nil
	t.deltaN = 0
	// Size-tiered compaction: while the newest level rivals its elder,
	// merge the two into brand-new maps. Slices for keys present in both
	// are merged into fresh arrays; single-side keys alias the old level
	// (immutable-to-immutable sharing). Published snapshots hold their
	// own copy of the level stack, so replacing ours cannot disturb them.
	for n := len(t.levels); n >= 2 && t.sizes[n-1]*2 >= t.sizes[n-2]; n = len(t.levels) {
		a, b := t.levels[n-2], t.levels[n-1]
		merged := make(map[string][]T, len(a)+len(b))
		for k, av := range a {
			if bv, ok := b[k]; ok {
				merged[k] = mergeTwoRuns(av, bv, t.needSort)
			} else {
				merged[k] = av
			}
		}
		for k, bv := range b {
			if _, ok := a[k]; !ok {
				merged[k] = bv
			}
		}
		t.levels[n-2] = merged
		t.sizes[n-2] += t.sizes[n-1]
		t.levels = t.levels[:n-1]
		t.sizes = t.sizes[:n-1]
	}
}

// snapshot captures the sealed level stack (call after seal: the delta
// must be empty, or the snapshot would miss it).
func (t *lsmRuns[T]) snapshot() lsmSnapshot[T] {
	return lsmSnapshot[T]{needSort: t.needSort, levels: append([]map[string][]T(nil), t.levels...)}
}

// lsmSnapshot is the immutable published form of an lsmRuns stack.
type lsmSnapshot[T ~int32] struct {
	needSort bool
	levels   []map[string][]T
}

func (s lsmSnapshot[T]) get(key string, base []T) []T {
	return mergeKeyRuns(s.levels, base, key, s.needSort)
}

// mergeKeyRuns collects key's non-empty runs bottom-up and merges them.
// Zero or one run short-circuits to the run itself (shared, not copied —
// store.Postings results are read-only by contract).
func mergeKeyRuns[T ~int32](levels []map[string][]T, base []T, key string, needSort bool) []T {
	var only []T
	count := 0
	if len(base) > 0 {
		only = base
		count++
	}
	for _, lvl := range levels {
		if run := lvl[key]; len(run) > 0 {
			only = run
			count++
		}
	}
	if count <= 1 {
		return only
	}
	parts := make([][]T, 0, count)
	if len(base) > 0 {
		parts = append(parts, base)
	}
	for _, lvl := range levels {
		if run := lvl[key]; len(run) > 0 {
			parts = append(parts, run)
		}
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = mergeTwoRuns(out, p, needSort)
	}
	return out
}

// mergeTwoRuns merges sorted runs a (older) and b (newer) into a fresh
// slice: concatenation when runs are disjoint ascending ranges, sorted
// duplicate-free union otherwise.
func mergeTwoRuns[T ~int32](a, b []T, needSort bool) []T {
	if needSort {
		return mergeSorted(a, b)
	}
	out := make([]T, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}
