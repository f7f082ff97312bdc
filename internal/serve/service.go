// Package serve is the transport-agnostic query handler layer of the
// Lipstick Query Processor: one Service answers every query the system
// supports (info, outputs, zoom, delete, subgraph, lineage, find, plus
// the DOT/OPM/JSON exports) with structured results, backed by a
// core.SnapshotManager so repeated queries against the same snapshot hit
// a cached, indexed processor instead of reloading from disk. The
// `lipstick` CLI subcommands and the `lipstick serve` HTTP endpoints are
// both thin callers of this layer.
package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"lipstick/internal/core"
	"lipstick/internal/opm"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// Service answers provenance queries against snapshot files, caching
// loaded processors between calls, and manages the registry of named
// snapshots plus their copy-on-write mutation sessions. It is safe for
// concurrent use: every read handler treats the shared cached processor
// as read-only; transformations (zoom previews, session zoom/delete)
// work on overlays, never on the shared graph.
type Service struct {
	mgr *core.SnapshotManager
	reg *core.Registry
	// cache holds marshaled query responses keyed by (graph, published
	// sequence, endpoint, normalized query) — correct by construction
	// over immutable views, so it needs no invalidation hooks.
	cache *core.QueryCache
	// replica is the runtime replication role (follower mode, lag
	// reporter); see replica.go.
	replica replicaState
	// chaosExit enables the chaos endpoints (see chaos.go); set once via
	// EnableChaos before Handler builds the mux, nil keeps them off.
	chaosExit func(code int)
}

// NewService builds a service over the given snapshot cache; a nil
// manager gets a private cache of default capacity. The service's
// registry uses default session TTL and cap — use NewRegistryService to
// tune them.
func NewService(mgr *core.SnapshotManager) *Service {
	if mgr == nil {
		mgr = core.NewSnapshotManager(0)
	}
	s := &Service{mgr: mgr, reg: core.NewRegistry(mgr), cache: core.NewQueryCache(0, 0)}
	s.initGeneration()
	return s
}

// NewRegistryService builds a service over an existing snapshot registry
// (and its snapshot cache).
func NewRegistryService(reg *core.Registry) *Service {
	s := &Service{mgr: reg.Manager(), reg: reg, cache: core.NewQueryCache(0, 0)}
	s.initGeneration()
	return s
}

// Manager exposes the underlying snapshot cache.
func (s *Service) Manager() *core.SnapshotManager { return s.mgr }

// Registry exposes the snapshot/session registry.
func (s *Service) Registry() *core.Registry { return s.reg }

// BadRequestError marks failures caused by the request's arguments
// (unknown module, malformed node id, ...) as opposed to snapshot I/O
// errors; the HTTP layer maps it to a 400.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

func badRequestf(format string, args ...any) error {
	return &BadRequestError{Msg: fmt.Sprintf(format, args...)}
}

func (s *Service) open(path string) (*core.QueryProcessor, error) {
	return s.mgr.Open(path)
}

// parseNode resolves a node-id argument against a view's slot range.
func parseNode(total int, arg string) (provgraph.NodeID, error) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 0 || n >= total {
		return 0, badRequestf("invalid node id %q (graph has %d nodes)", arg, total)
	}
	return provgraph.NodeID(n), nil
}

// InfoResult summarizes a snapshot's graph.
type InfoResult struct {
	Nodes       int            `json:"nodes"`
	PNodes      int            `json:"pNodes"`
	VNodes      int            `json:"vNodes"`
	Edges       int            `json:"edges"`
	Invocations int            `json:"invocations"`
	ByType      map[string]int `json:"byType"`
}

// Info returns graph statistics.
func (s *Service) Info(path string) (*InfoResult, error) {
	qp, err := s.open(path)
	if err != nil {
		return nil, err
	}
	return infoOf(qp)
}

// infoOf summarizes any processor's graph (static snapshot or live).
func infoOf(qp *core.QueryProcessor) (*InfoResult, error) {
	st := qp.Stats()
	byType := make(map[string]int, len(st.ByType))
	for t, n := range st.ByType {
		byType[t.String()] = n
	}
	return &InfoResult{
		Nodes: st.Nodes, PNodes: st.PNodes, VNodes: st.VNodes,
		Edges: st.Edges, Invocations: st.Invocations, ByType: byType,
	}, nil
}

// TupleResult is one annotated output tuple.
type TupleResult struct {
	Prov  provgraph.NodeID `json:"prov"`
	Mult  int              `json:"mult"`
	Tuple string           `json:"tuple"`
}

// RelationResult is one recorded output relation.
type RelationResult struct {
	Execution int           `json:"execution"`
	Node      string        `json:"node"`
	Relation  string        `json:"relation"`
	Tuples    []TupleResult `json:"tuples"`
}

// OutputsResult lists every recorded output relation.
type OutputsResult struct {
	Relations []RelationResult `json:"relations"`
}

// Outputs returns the annotated output relations of the snapshot.
func (s *Service) Outputs(path string) (*OutputsResult, error) {
	qp, err := s.open(path)
	if err != nil {
		return nil, err
	}
	return outputsOf(qp)
}

func outputsOf(qp *core.QueryProcessor) (*OutputsResult, error) {
	outs, err := qp.Outputs()
	if err != nil {
		return nil, err
	}
	res := &OutputsResult{Relations: []RelationResult{}}
	for _, d := range outs {
		rel := RelationResult{
			Execution: d.Execution, Node: d.Node, Relation: d.Relation,
			Tuples: make([]TupleResult, 0, len(d.Tuples)),
		}
		for _, t := range d.Tuples {
			rel.Tuples = append(rel.Tuples, TupleResult{
				Prov: t.Prov, Mult: t.Mult, Tuple: t.Tuple.String(),
			})
		}
		res.Relations = append(res.Relations, rel)
	}
	return res, nil
}

// ZoomResult reports the effect of zooming modules out.
type ZoomResult struct {
	Modules     []string `json:"modules"`
	NodesBefore int      `json:"nodesBefore"`
	NodesAfter  int      `json:"nodesAfter"`
	HiddenNodes int      `json:"hiddenNodes"`
	ZoomNodes   int      `json:"zoomNodes"`
}

// Zoom computes the coarse view with the given modules zoomed out
// (Section 4.1). The cached processor is shared between callers, so the
// transformation is applied to an ephemeral copy-on-write overlay — a
// per-request cost of O(zoom work) instead of the full Clone() the
// server used to pay — and reported, never persisted.
func (s *Service) Zoom(path string, modules ...string) (*ZoomResult, error) {
	qp, err := s.open(path)
	if err != nil {
		return nil, err
	}
	return zoomOf(qp, modules...)
}

// overlayPool recycles the ephemeral copy-on-write overlays zoom
// previews are computed on: each request Resets a pooled overlay over
// the shared graph instead of allocating delta containers from scratch.
var overlayPool = sync.Pool{New: func() any { return new(provgraph.Overlay) }}

func zoomOf(qp *core.QueryProcessor, modules ...string) (*ZoomResult, error) {
	if len(modules) == 0 {
		return nil, badRequestf("zoom: at least one module is required")
	}
	g := qp.Graph()
	seen := make(map[string]bool, len(modules))
	var invs []provgraph.InvID
	for _, m := range modules {
		if seen[m] {
			return nil, badRequestf("zoom: module %q given twice", m)
		}
		seen[m] = true
		mi := qp.Index().ModuleInvocations(m)
		if len(mi) == 0 {
			mi = g.InvocationsOf(m)
		}
		if len(mi) == 0 {
			return nil, badRequestf("zoom: no invocations of module %q in the graph", m)
		}
		invs = append(invs, mi...)
	}
	view := overlayPool.Get().(*provgraph.Overlay)
	view.Reset(g)
	rec := view.ZoomOutInvocations(modules, invs)
	res := &ZoomResult{
		Modules:     modules,
		NodesBefore: g.NumNodes(),
		NodesAfter:  view.NumNodes(),
		HiddenNodes: rec.HiddenCount(),
		ZoomNodes:   rec.ZoomNodeCount(),
	}
	overlayPool.Put(view)
	return res, nil
}

// RemovedNode describes one node a deletion would remove.
type RemovedNode struct {
	ID    provgraph.NodeID `json:"id"`
	Type  string           `json:"type"`
	Op    string           `json:"op"`
	Label string           `json:"label"`
}

// DeleteResult reports a what-if deletion propagation (Section 4.2).
type DeleteResult struct {
	Node         provgraph.NodeID `json:"node"`
	RemovedCount int              `json:"removedCount"`
	Removed      []RemovedNode    `json:"removed"`
}

// Delete runs deletion propagation from the given node without modifying
// the graph.
func (s *Service) Delete(path, node string) (*DeleteResult, error) {
	qp, err := s.open(path)
	if err != nil {
		return nil, err
	}
	return deleteOf(qp, node)
}

func deleteOf(qp *core.QueryProcessor, node string) (*DeleteResult, error) {
	id, err := parseNode(qp.Graph().TotalNodes(), node)
	if err != nil {
		return nil, err
	}
	res := qp.WhatIfDelete(id)
	return &DeleteResult{Node: id, RemovedCount: res.Size(), Removed: removedOf(qp.Graph(), res.Removed)}, nil
}

// removedOf describes the nodes a deletion removed, read from the view
// it ran on without assembling Nodes (no value decode).
func removedOf(g provgraph.GraphView, ids []provgraph.NodeID) []RemovedNode {
	out := make([]RemovedNode, 0, len(ids))
	for _, id := range ids {
		typ, op := g.TypeOp(id)
		out = append(out, RemovedNode{ID: id, Type: typ.String(), Op: op.String(), Label: g.LabelOf(id)})
	}
	return out
}

// SubgraphResult reports a subgraph query (Section 5.1).
type SubgraphResult struct {
	Root  provgraph.NodeID   `json:"root"`
	Size  int                `json:"size"`
	Nodes []provgraph.NodeID `json:"nodes"`
}

// Subgraph answers the subgraph query rooted at the given node.
func (s *Service) Subgraph(path, node string) (*SubgraphResult, error) {
	qp, err := s.open(path)
	if err != nil {
		return nil, err
	}
	return subgraphOf(qp.View(), node)
}

// subgraphOf, lineageOf, findOf and dotOf are the one body of each of
// those queries: a snapshot, a live graph's published view and a session
// all answer through them, over a core.View.
func subgraphOf(v core.View, node string) (*SubgraphResult, error) {
	id, err := parseNode(v.Graph.TotalNodes(), node)
	if err != nil {
		return nil, err
	}
	sub := v.Graph.Subgraph(id)
	return &SubgraphResult{Root: id, Size: sub.Size(), Nodes: sub.Nodes}, nil
}

// LineageResult classifies a node's ancestry.
type LineageResult struct {
	Node          provgraph.NodeID   `json:"node"`
	AncestorCount int                `json:"ancestorCount"`
	Inputs        []provgraph.NodeID `json:"inputs"`
	StateTuples   []provgraph.NodeID `json:"stateTuples"`
	Modules       []string           `json:"modules"`
	// Provenance is the node's semiring expression, cut at
	// provgraph.MaxExprBytes on a rune boundary; ProvenanceTruncated
	// marks a cut answer.
	Provenance          string `json:"provenance"`
	ProvenanceTruncated bool   `json:"provenanceTruncated,omitempty"`
}

// Lineage returns the classified ancestry and the semiring provenance
// expression of the given node.
func (s *Service) Lineage(path, node string) (*LineageResult, error) {
	qp, err := s.open(path)
	if err != nil {
		return nil, err
	}
	return lineageOf(qp.View(), node)
}

func lineageOf(v core.View, node string) (*LineageResult, error) {
	id, err := parseNode(v.Graph.TotalNodes(), node)
	if err != nil {
		return nil, err
	}
	l := v.Lineage(id)
	expr, truncated := v.Graph.ExprString(id)
	return &LineageResult{
		Node: id, AncestorCount: l.AncestorCount,
		Inputs: l.Inputs, StateTuples: l.StateTuples, Modules: l.Modules,
		Provenance: expr, ProvenanceTruncated: truncated,
	}, nil
}

// FindRequest selects nodes by structural properties; all fields are
// optional, string-encoded for uniform CLI/HTTP parsing (class: "p"/"v";
// type: "I", "m", "i", "o", "s", "tuple", "op", "value", "zoom"; op: "+",
// "·", "δ", "⊗", "agg", "bb", "const").
type FindRequest struct {
	Classes []string
	Types   []string
	Ops     []string
	Label   string
	Module  string
}

// FindResult lists the matching live nodes.
type FindResult struct {
	Count int                `json:"count"`
	Nodes []provgraph.NodeID `json:"nodes"`
}

// filter parses the request's string-encoded dimensions into a
// core.NodeFilter.
func (req FindRequest) filter() (core.NodeFilter, error) {
	f := core.NodeFilter{Label: req.Label, Module: req.Module}
	for _, c := range req.Classes {
		cl, err := parseClass(c)
		if err != nil {
			return f, err
		}
		f.Classes = append(f.Classes, cl)
	}
	for _, t := range req.Types {
		ty, err := parseType(t)
		if err != nil {
			return f, err
		}
		f.Types = append(f.Types, ty)
	}
	for _, o := range req.Ops {
		op, err := parseOp(o)
		if err != nil {
			return f, err
		}
		f.Ops = append(f.Ops, op)
	}
	return f, nil
}

// Find answers an index-backed node selection query.
func (s *Service) Find(path string, req FindRequest) (*FindResult, error) {
	qp, err := s.open(path)
	if err != nil {
		return nil, err
	}
	return findOf(qp.View(), req)
}

func findOf(v core.View, req FindRequest) (*FindResult, error) {
	f, err := req.filter()
	if err != nil {
		return nil, err
	}
	nodes := v.FindNodes(f)
	if nodes == nil {
		nodes = []provgraph.NodeID{}
	}
	return &FindResult{Count: len(nodes), Nodes: nodes}, nil
}

func parseClass(s string) (provgraph.Class, error) {
	switch s {
	case "p":
		return provgraph.ClassP, nil
	case "v":
		return provgraph.ClassV, nil
	}
	return 0, badRequestf("unknown node class %q (want p or v)", s)
}

func parseType(s string) (provgraph.Type, error) {
	for t := provgraph.TypeWorkflowInput; t <= provgraph.TypeZoom; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, badRequestf("unknown node type %q", s)
}

func parseOp(s string) (provgraph.Op, error) {
	for o := provgraph.OpNone; o <= provgraph.OpConst; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, badRequestf("unknown operation %q", s)
}

// WriteDOT streams the graph as Graphviz DOT.
func (s *Service) WriteDOT(path string, w io.Writer) error {
	qp, err := s.open(path)
	if err != nil {
		return err
	}
	return dotOf(qp.View(), w, "lipstick")
}

func dotOf(v core.View, w io.Writer, title string) error {
	return v.Graph.WriteDOT(w, title)
}

// WriteOPM streams the graph as Open Provenance Model JSON.
func (s *Service) WriteOPM(path string, w io.Writer) error {
	qp, err := s.open(path)
	if err != nil {
		return err
	}
	return writeOPMOf(qp, w)
}

func writeOPMOf(qp *core.QueryProcessor, w io.Writer) error {
	return opm.Export(qp.Graph()).WriteJSON(w)
}

// WriteJSON streams the full snapshot as JSON.
func (s *Service) WriteJSON(path string, w io.Writer) error {
	qp, err := s.open(path)
	if err != nil {
		return err
	}
	return writeJSONOf(qp, w)
}

func writeJSONOf(qp *core.QueryProcessor, w io.Writer) error {
	outs, err := qp.Outputs()
	if err != nil {
		return err
	}
	return store.ExportJSON(w, &store.Snapshot{Graph: qp.Graph(), Outputs: outs})
}
