package core

import (
	"bytes"
	"reflect"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// indexFilters is a spread of filters across every indexed dimension plus
// unindexed shapes (empty, class-only).
func indexFilters() []NodeFilter {
	return []NodeFilter{
		{},
		{Classes: []provgraph.Class{provgraph.ClassV}},
		{Types: []provgraph.Type{provgraph.TypeBaseTuple}},
		{Types: []provgraph.Type{provgraph.TypeWorkflowInput, provgraph.TypeBaseTuple}},
		// Repeated values must not duplicate results.
		{Types: []provgraph.Type{provgraph.TypeInvocation, provgraph.TypeInvocation}},
		{Ops: []provgraph.Op{provgraph.OpTimes, provgraph.OpTimes}},
		{Ops: []provgraph.Op{provgraph.OpAgg}},
		{Ops: []provgraph.Op{provgraph.OpPlus, provgraph.OpTimes}},
		{Label: "SUM"},
		{Label: "item0"},
		{Label: "no-such-label"},
		{Module: "M_match"},
		{Module: "M_nope"},
		{Module: "M_match", Types: []provgraph.Type{provgraph.TypeModuleOutput}},
		{Classes: []provgraph.Class{provgraph.ClassP}, Ops: []provgraph.Op{provgraph.OpTimes}},
		{Types: []provgraph.Type{provgraph.TypeZoom}},
	}
}

// findNodesScanIn is the reference selection: a full scan of v's live
// nodes, with no index.
func findNodesScanIn(v provgraph.GraphView, f NodeFilter) []provgraph.NodeID {
	var out []provgraph.NodeID
	v.Nodes(func(n provgraph.Node) bool {
		if f.Matches(v, n) {
			out = append(out, n.ID)
		}
		return true
	})
	return out
}

// assertIndexMatchesScan checks every filter finds identical nodes via the
// postings index (find) and via the full scan of the view v it answers
// over.
func assertIndexMatchesScan(t *testing.T, find func(NodeFilter) []provgraph.NodeID, v provgraph.GraphView, stage string) {
	t.Helper()
	for _, f := range indexFilters() {
		got := find(f)
		want := findNodesScanIn(v, f)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: FindNodes(%+v) = %v, scan = %v", stage, f, got, want)
		}
	}
}

// TestFindNodesIndexedEqualsScan drives the indexed path through the full
// query-time life cycle: fresh load, then a session's zoom-out (new nodes
// beyond index coverage + dead intermediates), zoom-in, and applied
// deletion.
func TestFindNodesIndexedEqualsScan(t *testing.T) {
	tr := trackMini(t)
	qp := FromTracker(tr)
	assertIndexMatchesScan(t, qp.FindNodes, qp.Graph(), "fresh")

	s := NewSession(qp)
	if _, err := s.ZoomOut("M_match"); err != nil {
		t.Fatal(err)
	}
	// Zoom nodes were appended after the index was built.
	zoomNodes := s.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeZoom}})
	if len(zoomNodes) == 0 {
		t.Error("indexed FindNodes missed the freshly installed zoom nodes")
	}
	assertIndexMatchesScan(t, s.FindNodes, s.overlay, "zoomed-out")

	if _, err := s.ZoomIn(); err != nil {
		t.Fatal(err)
	}
	assertIndexMatchesScan(t, s.FindNodes, s.overlay, "zoomed-in")

	items := s.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeBaseTuple}, Label: "item0"})
	if len(items) != 1 {
		t.Fatalf("item0 = %v", items)
	}
	if _, _ = s.ApplyDelete(items[0]); len(s.FindNodes(NodeFilter{Label: "item0"})) != 0 {
		t.Error("deleted node still found via the index")
	}
	assertIndexMatchesScan(t, s.FindNodes, s.overlay, "after-delete")
}

// TestIndexFromPersistedSnapshot checks a processor loaded from an
// indexed snapshot file adopts the stored postings (no rebuild) and
// answers identically.
func TestIndexFromPersistedSnapshot(t *testing.T) {
	tr := trackMini(t)
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Postings == nil {
		t.Fatal("tracker wrote a snapshot without columnar postings")
	}
	qp := NewQueryProcessor(snap)
	assertIndexMatchesScan(t, qp.FindNodes, qp.Graph(), "persisted")
	if got := qp.Index().Coverage(); got != snap.Graph.TotalNodes() {
		t.Errorf("coverage = %d, want %d", got, snap.Graph.TotalNodes())
	}
	if invs := qp.Index().ModuleInvocations("M_match"); len(invs) != 1 {
		t.Errorf("M_match invocations = %v", invs)
	}
}

// TestIndexSetOps covers the sorted-list primitives directly.
func TestIndexSetOps(t *testing.T) {
	ids := func(xs ...provgraph.NodeID) []provgraph.NodeID { return xs }
	if got := intersectSorted(ids(1, 3, 5, 9), ids(2, 3, 4, 5, 10)); !reflect.DeepEqual(got, ids(3, 5)) {
		t.Errorf("intersect = %v", got)
	}
	if got := intersectSorted(ids(1, 2), nil); got != nil {
		t.Errorf("intersect with empty = %v", got)
	}
	if got := mergeSorted(ids(1, 4, 7), ids(2, 4, 6, 8)); !reflect.DeepEqual(got, ids(1, 2, 4, 6, 7, 8)) {
		t.Errorf("merge = %v", got)
	}
	// Union semantics: a repeated key must not duplicate ids.
	if got := unionSorted([][]provgraph.NodeID{ids(1, 2), ids(1, 2)}); !reflect.DeepEqual(got, ids(1, 2)) {
		t.Errorf("union of identical lists = %v", got)
	}
	if got := unionSorted([][]provgraph.NodeID{ids(5), ids(1, 9), ids(3)}); !reflect.DeepEqual(got, ids(1, 3, 5, 9)) {
		t.Errorf("union = %v", got)
	}
}
