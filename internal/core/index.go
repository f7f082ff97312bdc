package core

import (
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// Index is the query-side postings index a QueryProcessor answers
// selection queries from. A snapshot read from a file carries its
// postings — the columns of a v3 file (possibly mmap'd), or a build over
// the graph of a legacy v1/v2 file; for a processor over an in-memory
// graph (a tracker's) they are built once at construction. Either way,
// FindNodes intersects sorted postings lists instead of scanning every
// node.
//
// The index is immutable: graph transformations only flip node liveness
// (which lookups re-check) or append nodes past the indexed range (which
// lookups sweep separately), so it stays valid across ZoomOut/ZoomIn and
// deletion propagation without maintenance.
type Index struct {
	data store.Postings
}

// newIndex adopts a snapshot's postings, or builds them for a snapshot
// assembled in memory.
func newIndex(snap *store.Snapshot) *Index {
	if snap.Postings != nil {
		return &Index{data: snap.Postings}
	}
	return &Index{data: store.BuildPostings(snap.Graph)}
}

// Coverage returns the number of node slots the postings cover. Nodes
// appended after the index was built (e.g. zoom nodes installed by
// ZoomOut) have ids >= Coverage() and are not in any postings list.
func (ix *Index) Coverage() int { return ix.data.Coverage() }

// ModuleInvocations returns the indexed invocation ids of a module.
func (ix *Index) ModuleInvocations(module string) []provgraph.InvID {
	return ix.data.ModuleInvocations(module)
}

// candidates returns the sorted intersection of the postings lists for
// the filter's indexed dimensions (types, ops, label, module). The second
// result is false when no indexed dimension constrains the filter — the
// caller must sweep every slot (Classes alone are near-useless as a
// pre-filter: every node is one of two classes).
func (ix *Index) candidates(f NodeFilter) ([]provgraph.NodeID, bool) {
	var lists [][]provgraph.NodeID
	if len(f.Types) > 0 {
		per := make([][]provgraph.NodeID, 0, len(f.Types))
		for _, t := range f.Types {
			per = append(per, ix.data.TypeIDs(t))
		}
		lists = append(lists, unionSorted(per))
	}
	if len(f.Ops) > 0 {
		per := make([][]provgraph.NodeID, 0, len(f.Ops))
		for _, o := range f.Ops {
			per = append(per, ix.data.OpIDs(o))
		}
		lists = append(lists, unionSorted(per))
	}
	if f.Label != "" {
		lists = append(lists, ix.data.LabelIDs(f.Label))
	}
	if f.Module != "" {
		lists = append(lists, ix.data.ModuleIDs(f.Module))
	}
	if len(lists) == 0 {
		return nil, false
	}
	cand := lists[0]
	for _, l := range lists[1:] {
		if len(cand) == 0 {
			break
		}
		cand = intersectSorted(cand, l)
	}
	return cand, true
}

// unionSorted merges sorted id lists into one sorted duplicate-free list.
// Postings for distinct keys of one dimension are disjoint, but callers
// may repeat a key (e.g. `?type=m&type=m` over HTTP), so the merge must
// have set-union semantics to match what the scan path returns.
func unionSorted(lists [][]provgraph.NodeID) []provgraph.NodeID {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	out := lists[0]
	for _, l := range lists[1:] {
		out = mergeSorted(out, l)
	}
	return out
}

// mergeSorted returns the duplicate-free union of two sorted lists in a
// fresh slice.
func mergeSorted[T ~int32](a, b []T) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// intersectSorted returns the ids present in both sorted lists.
func intersectSorted(a, b []provgraph.NodeID) []provgraph.NodeID {
	var out []provgraph.NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
