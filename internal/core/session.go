package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lipstick/internal/provgraph"
)

// Session is a mutable what-if view over one registered snapshot: zoom
// and deletion transformations apply to a copy-on-write overlay
// (provgraph.Overlay) recorded as deltas over the shared base graph, so
// creating a session never deep-copies the base and concurrent readers of
// the snapshot stay untouched. Queries (find, subgraph, lineage, DOT,
// provenance expressions, what-if deletes) answer through the overlay
// and are equal to the same queries on a Clone-then-mutate baseline;
// while the overlay holds no delta (a fresh session, or one whose zooms
// were all zoomed back in), they answer from the base graph itself.
//
// A session is safe for concurrent use; a mutex serializes access to its
// overlay. Registered sessions are created by a Registry and expire by
// TTL and LRU cap — see Registry.CreateSession; NewSession opens a
// private one over any processor.
type Session struct {
	id       string
	snapshot string
	base     *QueryProcessor
	created  time.Time
	lastUsed atomic.Int64 // unix nanos; touched by Registry.Session

	mu      sync.Mutex
	overlay *provgraph.Overlay      // guarded by mu
	zooms   []*provgraph.ZoomRecord // guarded by mu
	zoomed  map[string]bool         // guarded by mu
}

func newSession(id, snapshot string, base *QueryProcessor, now time.Time) *Session {
	s := &Session{
		id:       id,
		snapshot: snapshot,
		base:     base,
		created:  now,
		overlay:  provgraph.NewOverlay(base.Graph()),
		zoomed:   map[string]bool{},
	}
	s.lastUsed.Store(now.UnixNano())
	return s
}

// NewSession opens an unregistered session over qp: a private what-if
// view with no id or snapshot name, which no registry expires.
func NewSession(qp *QueryProcessor) *Session { return newSession("", "", qp, time.Now()) }

// fork clones the session's copy-on-write state into a new session with
// the given id: overlay deltas, zoom stack, and zoomed-module set are
// copied (O(changes)); the shared base processor is referenced, never
// copied. ZoomRecords are immutable after creation, so parent and child
// can both replay the shared stack safely.
func (s *Session) fork(id string, now time.Time) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Session{
		id:       id,
		snapshot: s.snapshot,
		base:     s.base,
		created:  now,
		overlay:  s.overlay.Fork(),
		zooms:    append([]*provgraph.ZoomRecord(nil), s.zooms...),
		zoomed:   make(map[string]bool, len(s.zoomed)),
	}
	for m := range s.zoomed {
		c.zoomed[m] = true
	}
	c.lastUsed.Store(now.UnixNano())
	return c
}

// ID returns the session's registry-assigned identifier.
func (s *Session) ID() string { return s.id }

// SnapshotName returns the name of the snapshot the session was opened on.
func (s *Session) SnapshotName() string { return s.snapshot }

// Created returns the session's creation time.
func (s *Session) Created() time.Time { return s.created }

// LastUsed returns the last time the registry resolved the session.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// touch/expired are the registry's TTL hooks.
func (s *Session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }
func (s *Session) expired(now time.Time, ttl time.Duration) bool {
	return ttl > 0 && now.Sub(time.Unix(0, s.lastUsed.Load())) > ttl
}

// Base exposes the shared read-only processor the session layers over.
func (s *Session) Base() *QueryProcessor { return s.base }

// Changes returns the number of deltas the session has recorded — its
// memory cost in units of changes, not graph size.
func (s *Session) Changes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overlay.Changes()
}

// ZoomOut hides the internals of the given modules in the session view
// (Section 4.1) and pushes the operation on the session's zoom stack.
func (s *Session) ZoomOut(modules ...string) (*provgraph.ZoomRecord, error) {
	if len(modules) == 0 {
		return nil, fmt.Errorf("lipstick: zoom-out requires at least one module")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.zoomOutLocked(modules)
}

// zoomOutLocked is ZoomOut with s.mu held.
func (s *Session) zoomOutLocked(modules []string) (*provgraph.ZoomRecord, error) {
	seen := make(map[string]bool, len(modules))
	var invs []provgraph.InvID
	for _, m := range modules {
		if seen[m] {
			return nil, fmt.Errorf("lipstick: module %q given twice", m)
		}
		seen[m] = true
		if s.zoomed[m] {
			return nil, fmt.Errorf("lipstick: module %q is already zoomed out", m)
		}
		mi := s.base.Index().ModuleInvocations(m)
		if len(mi) == 0 {
			mi = s.overlay.InvocationsOf(m)
		}
		if len(mi) == 0 {
			return nil, fmt.Errorf("lipstick: no invocations of module %q in the graph", m)
		}
		invs = append(invs, mi...)
	}
	rec := s.overlay.ZoomOutInvocations(modules, invs)
	s.zooms = append(s.zooms, rec)
	for _, m := range modules {
		s.zoomed[m] = true
	}
	return rec, nil
}

// CoarseView zooms out every module not zoomed out yet, in one ZoomOut,
// yielding the coarse-grained view of Section 3.1. It returns a nil
// record when every module already is.
func (s *Session) CoarseView() (*provgraph.ZoomRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var modules []string
	seen := map[string]bool{}
	s.overlay.Invocations(func(inv *provgraph.Invocation) bool {
		if !seen[inv.Module] && !s.zoomed[inv.Module] {
			seen[inv.Module] = true
			modules = append(modules, inv.Module)
		}
		return true
	})
	if len(modules) == 0 {
		return nil, nil
	}
	return s.zoomOutLocked(modules)
}

// ZoomIn undoes the most recent ZoomOut (zooms nest like a stack). If
// nothing else changed the session since that ZoomOut, its overlay rolls
// back to its exact state before it, delta count and slot count included.
func (s *Session) ZoomIn() (*provgraph.ZoomRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.zooms) == 0 {
		return nil, fmt.Errorf("lipstick: nothing is zoomed out")
	}
	rec := s.zooms[len(s.zooms)-1]
	s.zooms = s.zooms[:len(s.zooms)-1]
	s.overlay.ZoomIn(rec)
	for _, m := range rec.Modules {
		delete(s.zoomed, m)
	}
	return rec, nil
}

// ZoomedOut lists the currently zoomed-out modules (sorted).
func (s *Session) ZoomedOut() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.zoomed))
	for m := range s.zoomed {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// WhatIfDelete computes the effect of deleting the given nodes in the
// session view without applying it.
func (s *Session) WhatIfDelete(ids ...provgraph.NodeID) *provgraph.DeletionResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphLocked().PropagateDeletion(ids...)
}

// ApplyDelete propagates the deletion destructively in the session view
// and recomputes affected aggregate values (Example 4.3). The base graph
// is untouched: the kills and value changes are overlay deltas.
func (s *Session) ApplyDelete(ids ...provgraph.NodeID) (*provgraph.DeletionResult, []provgraph.RecomputedAggregate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.overlay.Delete(ids...)
	recs := s.overlay.RecomputeAggregates()
	return res, recs
}

// Delete propagates the deletion of ids in the session view (Definition
// 4.2) and calls fn with its result and the view after it. With whatIf
// the effect is only computed, as WhatIfDelete does; otherwise it is
// applied and affected aggregates are recomputed, as ApplyDelete does.
// The id check, the deletion and fn run under one hold of the session
// lock, so a concurrent ZoomIn cannot drop an id between them. An id
// outside the view is a *NodeRangeError, and nothing is deleted. fn must
// not retain the view or call back into the session.
func (s *Session) Delete(ids []provgraph.NodeID, whatIf bool, fn func(v View, res *provgraph.DeletionResult, recs []provgraph.RecomputedAggregate)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.overlay.TotalNodes()
	for _, id := range ids {
		if id < 0 || int(id) >= total {
			return &NodeRangeError{ID: id, Total: total}
		}
	}
	var res *provgraph.DeletionResult
	var recs []provgraph.RecomputedAggregate
	if whatIf {
		res = s.graphLocked().PropagateDeletion(ids...)
	} else {
		res = s.overlay.Delete(ids...)
		recs = s.overlay.RecomputeAggregates()
	}
	fn(s.viewLocked(), res, recs)
	return nil
}

// Read runs fn over the session view under one hold of the session lock,
// so every read fn makes, node id checks included, sees one state. fn
// must not retain the view or call back into the session.
func (s *Session) Read(fn func(View) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn(s.viewLocked())
}

// viewLocked (s.mu held) is the session's graph over the base's postings.
func (s *Session) viewLocked() View { return View{Graph: s.graphLocked(), Index: s.base.Index()} }

// graphLocked (s.mu held) is the graph session reads run on: the base
// graph while the overlay holds no delta (Changes is 0), which answers
// alike without the overlay's per-node dispatch, and the overlay
// otherwise. Mutations always go to the overlay.
func (s *Session) graphLocked() provgraph.GraphView {
	if s.overlay.Changes() == 0 {
		return s.overlay.Base()
	}
	return s.overlay
}

// FindNodes answers an index-backed node selection query through the
// session view: postings come from the base snapshot's index, liveness
// and values from the overlay.
func (s *Session) FindNodes(f NodeFilter) []provgraph.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked().FindNodes(f)
}

// Subgraph answers the subgraph query of Section 5.1 in the session view.
func (s *Session) Subgraph(id provgraph.NodeID) *provgraph.SubgraphResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphLocked().Subgraph(id)
}

// Lineage classifies a node's ancestry in the session view.
func (s *Session) Lineage(id provgraph.NodeID) Lineage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked().Lineage(id)
}

// Provenance renders a node's semiring provenance expression in the
// session view, cut at provgraph.MaxExprBytes (truncated reports the
// cut).
func (s *Session) Provenance(id provgraph.NodeID) (expr string, truncated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphLocked().ExprString(id)
}

// DependsOn answers the dependency query of Section 4.3 in the session
// view.
func (s *Session) DependsOn(a, b provgraph.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphLocked().DependsOn(a, b)
}

// Node returns the node with the given id as seen by the session
// (overlay value overrides applied).
func (s *Session) Node(id provgraph.NodeID) provgraph.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphLocked().Node(id)
}

// TotalNodes returns the session view's node-slot count (base + appended
// zoom nodes).
func (s *Session) TotalNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overlay.TotalNodes()
}

// NumNodes returns the session view's live node count in O(1).
func (s *Session) NumNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overlay.NumNodes()
}

// Stats summarizes the session's live view. A session without deltas
// answers its base processor's stats, computed once per base.
func (s *Session) Stats() provgraph.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.overlay.Changes() == 0 {
		return s.base.Stats()
	}
	return s.overlay.ComputeStats()
}

// WriteDOT streams the session's live view as Graphviz DOT.
func (s *Session) WriteDOT(w io.Writer, title string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphLocked().WriteDOT(w, title)
}
