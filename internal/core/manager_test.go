package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lipstick/internal/provgraph"
)

// saveMini persists a tracked mini-workflow snapshot and returns its path.
func saveMini(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := trackMini(t).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSnapshotManagerCachesByPath(t *testing.T) {
	dir := t.TempDir()
	path := saveMini(t, dir, "a.lpsk")
	m := NewSnapshotManager(2)

	qp1, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	qp2, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if qp1 != qp2 {
		t.Error("second Open reloaded instead of returning the cached processor")
	}
	if m.Len() != 1 {
		t.Errorf("cache len = %d", m.Len())
	}
}

func TestSnapshotManagerReloadsOnChange(t *testing.T) {
	dir := t.TempDir()
	path := saveMini(t, dir, "a.lpsk")
	m := NewSnapshotManager(2)

	qp1, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the snapshot and force a different mtime (coarse filesystem
	// timestamps would otherwise make this racy).
	if err := trackMini(t).Save(path); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	qp2, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if qp1 == qp2 {
		t.Error("Open returned the stale processor after the file changed")
	}
	qp3, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if qp2 != qp3 {
		t.Error("unchanged file reloaded")
	}
}

func TestSnapshotManagerEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	a := saveMini(t, dir, "a.lpsk")
	b := saveMini(t, dir, "b.lpsk")
	m := NewSnapshotManager(1)

	qpA, err := m.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(b); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Errorf("cache len = %d, want 1 after eviction", m.Len())
	}
	qpA2, err := m.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if qpA == qpA2 {
		t.Error("evicted entry returned without a reload")
	}
}

func TestSnapshotManagerInvalidate(t *testing.T) {
	dir := t.TempDir()
	path := saveMini(t, dir, "a.lpsk")
	m := NewSnapshotManager(2)
	qp1, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Invalidate(path)
	if m.Len() != 0 {
		t.Errorf("len after invalidate = %d", m.Len())
	}
	qp2, err := m.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if qp1 == qp2 {
		t.Error("invalidated entry not reloaded")
	}
}

func TestSnapshotManagerMissingFile(t *testing.T) {
	m := NewSnapshotManager(2)
	if _, err := m.Open(filepath.Join(t.TempDir(), "missing.lpsk")); err == nil {
		t.Error("opening a missing snapshot should fail")
	}
	if m.Len() != 0 {
		t.Errorf("missing file left %d cache slots", m.Len())
	}
}

// TestSnapshotManagerConcurrent hammers one manager from many goroutines
// across two paths; run under -race this checks the locking discipline,
// and all callers of one path must observe a single load.
func TestSnapshotManagerConcurrent(t *testing.T) {
	dir := t.TempDir()
	paths := []string{saveMini(t, dir, "a.lpsk"), saveMini(t, dir, "b.lpsk")}
	m := NewSnapshotManager(2)

	var wg sync.WaitGroup
	got := make([]*QueryProcessor, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qp, err := m.Open(paths[i%2])
			if err != nil {
				t.Error(err)
				return
			}
			// Exercise a read-only query on the shared processor.
			_ = qp.FindNodes(NodeFilter{Label: "item0"})
			got[i] = qp
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(got); i++ {
		if got[i] != got[i%2] {
			t.Errorf("path %d loaded more than once", i%2)
		}
	}
}

// TestSessionLeavesSharedProcessorUnchanged: a session over the
// process-wide cached processor zooms out, zooms in and applies a delete
// through its overlay. The shared graph keeps its counts, and a second
// Open answers every subgraph and lineage query as before.
func TestSessionLeavesSharedProcessorUnchanged(t *testing.T) {
	path := saveMini(t, t.TempDir(), "shared.lpsk")
	qp, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() [3]int {
		g := qp.Graph()
		return [3]int{g.TotalNodes(), g.NumNodes(), g.NumEdges()}
	}
	answers := func(qp *QueryProcessor) string {
		var b []byte
		g := qp.Graph()
		for id := range provgraph.NodeID(g.TotalNodes()) {
			if g.Alive(id) {
				b = fmt.Appendf(b, "%d: %v %+v\n", id, qp.Subgraph(id).Nodes, qp.Lineage(id))
			}
		}
		return string(b)
	}
	wantCounts, wantAnswers := counts(), answers(qp)

	s := NewSession(qp)
	if _, err := s.ZoomOut("M_match"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ZoomIn(); err != nil {
		t.Fatal(err)
	}
	items := s.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeBaseTuple}, Label: "item0"})
	if len(items) != 1 {
		t.Fatalf("item0 = %v", items)
	}
	if res, recs := s.ApplyDelete(items[0]); res.Size() == 0 || len(recs) == 0 {
		t.Fatalf("ApplyDelete removed %d nodes and recomputed %d aggregates", res.Size(), len(recs))
	}

	if got := counts(); got != wantCounts {
		t.Errorf("shared processor TotalNodes/NumNodes/NumEdges = %v, want %v", got, wantCounts)
	}
	again, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := answers(again); got != wantAnswers {
		t.Error("a second Open answers subgraph or lineage queries differently after the session")
	}
}
