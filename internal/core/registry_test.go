package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

func TestRegistryRegisterAndLookup(t *testing.T) {
	dir := t.TempDir()
	path := saveMini(t, dir, "mini.lpsk")
	r := NewRegistry(nil)

	if err := r.Register("mini", path); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("mini", path); err != nil {
		t.Errorf("re-registering the same path: %v", err)
	}
	if err := r.Register("mini", filepath.Join(dir, "other.lpsk")); err == nil {
		t.Error("registering a taken name with a different path should fail")
	}
	for _, bad := range []string{"", "a/b", `a\b`} {
		if err := r.Register(bad, path); err == nil {
			t.Errorf("Register(%q) should fail", bad)
		}
	}

	got, err := r.Lookup("mini")
	if err != nil || got != path {
		t.Fatalf("Lookup = %q, %v", got, err)
	}
	if _, err := r.Open("mini"); err != nil {
		t.Fatalf("Open: %v", err)
	}

	_, err = r.Lookup("nope")
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Kind != "snapshot" || nf.Name != "nope" {
		t.Fatalf("Lookup(nope) = %v, want snapshot NotFoundError", err)
	}
}

func TestRegistryRegisterDir(t *testing.T) {
	dir := t.TempDir()
	saveMini(t, dir, "b.lpsk")
	saveMini(t, dir, "a.lpsk")
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(nil)
	names, err := r.RegisterDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[a b]" {
		t.Fatalf("names = %v", names)
	}
	snaps := r.Snapshots()
	if len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "b" {
		t.Fatalf("Snapshots = %+v", snaps)
	}
	if _, err := r.RegisterDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("RegisterDir on a missing dir should fail")
	}
}

func TestRegistrySessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := saveMini(t, dir, "mini.lpsk")
	r := NewRegistry(nil)
	if err := r.Register("mini", path); err != nil {
		t.Fatal(err)
	}

	if _, err := r.CreateSession("nope"); err == nil {
		t.Fatal("CreateSession on an unknown snapshot should fail")
	}
	s, err := r.CreateSession("mini")
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() == "" || s.SnapshotName() != "mini" {
		t.Fatalf("session = %q over %q", s.ID(), s.SnapshotName())
	}
	if got, err := r.Session(s.ID()); err != nil || got != s {
		t.Fatalf("Session(%q) = %v, %v", s.ID(), got, err)
	}
	if r.NumSessions() != 1 {
		t.Fatalf("NumSessions = %d", r.NumSessions())
	}
	if err := r.CloseSession(s.ID()); err != nil {
		t.Fatal(err)
	}
	_, err = r.Session(s.ID())
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Kind != "session" || nf.Name != s.ID() {
		t.Fatalf("Session after close = %v, want session NotFoundError", err)
	}
	if err := r.CloseSession(s.ID()); !errors.As(err, &nf) {
		t.Fatalf("double close = %v", err)
	}
}

func TestRegistrySessionTTLAndLRUCap(t *testing.T) {
	dir := t.TempDir()
	path := saveMini(t, dir, "mini.lpsk")
	r := NewRegistry(nil, WithSessionTTL(time.Minute), WithSessionLimit(2))
	if err := r.Register("mini", path); err != nil {
		t.Fatal(err)
	}
	clock := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	r.now = func() time.Time { return clock }

	s1, err := r.CreateSession("mini")
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Second)
	s2, err := r.CreateSession("mini")
	if err != nil {
		t.Fatal(err)
	}

	// The cap evicts the least recently used session (s1).
	clock = clock.Add(time.Second)
	if _, err := r.CreateSession("mini"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Session(s1.ID()); err == nil {
		t.Fatal("s1 should have been LRU-evicted")
	}
	if _, err := r.Session(s2.ID()); err != nil {
		t.Fatalf("s2 should survive the cap: %v", err)
	}

	// TTL expires idle sessions; touched ones survive.
	clock = clock.Add(59 * time.Second)
	if _, err := r.Session(s2.ID()); err != nil {
		t.Fatalf("s2 expired too early: %v", err)
	}
	clock = clock.Add(2 * time.Minute)
	if _, err := r.Session(s2.ID()); err == nil {
		t.Fatal("s2 should have expired")
	}
	if n := r.NumSessions(); n != 1 {
		t.Fatalf("NumSessions after expiry = %d", n) // only the third session's slot remains...
	}
	clock = clock.Add(3 * time.Minute)
	if n := r.ExpireSessions(); n != 1 {
		t.Fatalf("ExpireSessions = %d", n)
	}
	if len(r.Sessions()) != 0 {
		t.Fatalf("Sessions = %v", r.Sessions())
	}
}

// TestSessionEqualsCloneBaseline is the acceptance check: session-scoped
// find/subgraph/lineage/dot through the overlay equal the same queries on
// a Clone()-then-mutate baseline, across zoom and delete. The baseline
// clone is Materialize of an independent overlay given the same
// mutations, queried through a processor with an index of its own.
func TestSessionEqualsCloneBaseline(t *testing.T) {
	dir := t.TempDir()
	path := saveMini(t, dir, "mini.lpsk")
	r := NewRegistry(nil)
	if err := r.Register("mini", path); err != nil {
		t.Fatal(err)
	}
	base, err := r.Open("mini")
	if err != nil {
		t.Fatal(err)
	}

	bov := provgraph.NewOverlay(base.Graph())

	s, err := r.CreateSession("mini")
	if err != nil {
		t.Fatal(err)
	}

	// Mutation sequence: zoom out a module, then delete a base tuple.
	if _, err := s.ZoomOut("M_match"); err != nil {
		t.Fatal(err)
	}
	brec := bov.ZoomOut("M_match")
	tuples := s.FindNodes(NodeFilter{Label: "item0"})
	if len(tuples) != 1 {
		// item0 is hidden by the zoom of M_match (its state feeds it);
		// fall back to a workflow input.
		tuples = s.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeWorkflowInput}})
	}
	if len(tuples) == 0 {
		t.Fatal("no node to delete")
	}
	target := tuples[0]
	res, _ := s.ApplyDelete(target)
	wantRes := bov.Delete(target)
	bov.RecomputeAggregates()
	clone := bov.Materialize()
	baseline := NewQueryProcessor(&store.Snapshot{Graph: clone})
	if fmt.Sprint(res.Removed) != fmt.Sprint(wantRes.Removed) {
		t.Fatalf("delete removed %v, baseline %v", res.Removed, wantRes.Removed)
	}

	// Every query surface must agree with the baseline.
	for _, f := range []NodeFilter{
		{},
		{Types: []provgraph.Type{provgraph.TypeZoom}},
		{Types: []provgraph.Type{provgraph.TypeModuleOutput}},
		{Ops: []provgraph.Op{provgraph.OpAgg}},
		{Module: "M_match"},
		{Label: "item1"},
	} {
		got, want := s.FindNodes(f), baseline.FindNodes(f)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("FindNodes(%+v): session %v, baseline %v", f, got, want)
		}
	}
	for id := 0; id < clone.TotalNodes(); id++ {
		nid := provgraph.NodeID(id)
		if !clone.Alive(nid) {
			continue
		}
		if fmt.Sprint(s.Subgraph(nid).Nodes) != fmt.Sprint(baseline.Subgraph(nid).Nodes) {
			t.Errorf("subgraph(%d) differs", id)
		}
		gl, wl := s.Lineage(nid), baseline.Lineage(nid)
		if fmt.Sprint(gl) != fmt.Sprint(wl) {
			t.Errorf("lineage(%d): session %+v, baseline %+v", id, gl, wl)
		}
		if p, truncated := s.Provenance(nid); p != baseline.Expr(nid).String() || truncated {
			t.Errorf("provenance(%d) differs", id)
		}
	}
	var gotDOT, wantDOT bytes.Buffer
	if err := s.WriteDOT(&gotDOT, "t"); err != nil {
		t.Fatal(err)
	}
	if err := clone.WriteDOT(&wantDOT, "t"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDOT.Bytes(), wantDOT.Bytes()) {
		t.Error("session DOT differs from the clone baseline's")
	}
	gs, ws := s.Stats(), clone.ComputeStats()
	if gs.Nodes != ws.Nodes || gs.Edges != ws.Edges {
		t.Errorf("stats: session %+v, baseline %+v", gs, ws)
	}

	// The session validates zooms and keeps a zoom stack.
	if _, err := s.ZoomOut("M_match"); err == nil {
		t.Error("double zoom-out of one module should fail")
	}
	if _, err := s.ZoomOut(); err == nil {
		t.Error("empty zoom-out should fail")
	}
	if _, err := s.ZoomOut("M_ghost"); err == nil {
		t.Error("zoom-out of an unknown module should fail")
	}
	if _, err := s.ZoomIn(); err != nil {
		t.Errorf("ZoomIn: %v", err)
	}
	bov.ZoomIn(brec)
	if !provgraph.ViewsStructurallyEqual(sessionView(s), bov) {
		t.Error("views differ after zoom-in")
	}
	if _, err := s.ZoomIn(); err == nil {
		t.Error("ZoomIn with an empty stack should fail")
	}
	if got := s.ZoomedOut(); len(got) != 0 {
		t.Errorf("ZoomedOut = %v", got)
	}
}

// sessionView exposes a session's overlay for structural assertions.
func sessionView(s *Session) provgraph.GraphView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overlay
}

// encodeBaseGraph serializes the shared base graph; the churn test
// asserts the bytes are identical before and after session traffic.
func encodeBaseGraph(t *testing.T, qp *QueryProcessor) []byte {
	t.Helper()
	var buf bytes.Buffer
	outs, err := qp.Outputs()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(&buf, &store.Snapshot{Graph: qp.Graph(), Outputs: outs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegistryConcurrentSessionChurn hammers one registry from many
// goroutines — creating, mutating, querying, and closing sessions while
// readers query the shared base — and asserts the base graph is
// byte-identical afterwards. Run with -race.
func TestRegistryConcurrentSessionChurn(t *testing.T) {
	const workers = 8
	const iters = 20
	// sessionCap admits every session the test ever creates (workers*iters
	// = 160; at most 80 stay open, plus one in flight per worker), so the
	// LRU cap can never evict a session a starved worker has yet to close.
	// Eviction itself is asserted by TestRegistrySessionTTLAndLRUCap.
	const sessionCap = workers * iters
	dir := t.TempDir()
	path := saveMini(t, dir, "mini.lpsk")
	r := NewRegistry(nil, WithSessionLimit(sessionCap))
	if err := r.Register("mini", path); err != nil {
		t.Fatal(err)
	}
	base, err := r.Open("mini")
	if err != nil {
		t.Fatal(err)
	}
	before := encodeBaseGraph(t, base)
	inputs := base.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeBaseTuple}})
	if len(inputs) == 0 {
		t.Fatal("no base tuples")
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() { // session churn
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s, err := r.CreateSession("mini")
				if err != nil {
					errc <- err
					return
				}
				if _, err := s.ZoomOut("M_match"); err != nil {
					errc <- err
					return
				}
				target := inputs[(w*iters+i)%len(inputs)]
				s.WhatIfDelete(target)
				s.ApplyDelete(target)
				s.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeZoom}})
				s.Lineage(0)
				s.Stats()
				if i%2 == 0 {
					if err := r.CloseSession(s.ID()); err != nil {
						errc <- err
						return
					}
				} else if _, err := s.ZoomIn(); err != nil {
					errc <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // concurrent base readers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				base.FindNodes(NodeFilter{Module: "M_match"})
				base.Subgraph(inputs[i%len(inputs)])
				base.Lineage(inputs[i%len(inputs)])
				base.WhatIfDelete(inputs[i%len(inputs)])
				if _, err := r.Open("mini"); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	after := encodeBaseGraph(t, base)
	if !bytes.Equal(before, after) {
		t.Fatal("session churn mutated the shared base graph")
	}
	if !base.Graph().IsAcyclic() {
		t.Fatal("base graph corrupted")
	}
}
