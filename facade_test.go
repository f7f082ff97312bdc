package lipstick_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"lipstick"
)

// buildFacadeWorkflow assembles a small pipeline through the public API.
func buildFacadeWorkflow(t *testing.T) *lipstick.Workflow {
	t.Helper()
	str := lipstick.ScalarType(lipstick.KindString)
	flt := lipstick.ScalarType(lipstick.KindFloat)
	reqSchema := lipstick.NewSchema(lipstick.Field{Name: "Sku", Type: str})
	itemSchema := lipstick.NewSchema(
		lipstick.Field{Name: "Sku", Type: str},
		lipstick.Field{Name: "Price", Type: flt},
	)
	w := lipstick.NewWorkflow()
	src := &lipstick.Module{Name: "M_src", Out: lipstick.RelationSchemas{"Req": reqSchema}}
	match := &lipstick.Module{
		Name:  "M_match",
		In:    lipstick.RelationSchemas{"Req": reqSchema},
		State: lipstick.RelationSchemas{"Items": itemSchema},
		Out:   lipstick.RelationSchemas{"Matches": itemSchema},
		Program: `
MJ = JOIN Items BY Sku, Req BY Sku;
Matches = FOREACH MJ GENERATE Items::Sku AS Sku, Items::Price AS Price;
`,
	}
	if err := w.AddNode("src", src); err != nil {
		t.Fatal(err)
	}
	if err := w.AddNode("match", match); err != nil {
		t.Fatal(err)
	}
	if err := w.AddEdge("src", "match", "Req"); err != nil {
		t.Fatal(err)
	}
	w.In = []string{"src"}
	w.Out = []string{"match"}
	return w
}

// TestFacadeEndToEnd drives track -> save -> load -> query purely through
// the public API.
func TestFacadeEndToEnd(t *testing.T) {
	w := buildFacadeWorkflow(t)
	tr, err := lipstick.NewTracker(w, lipstick.Fine)
	if err != nil {
		t.Fatal(err)
	}
	items := lipstick.NewBag(
		lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(10)),
		lipstick.NewTuple(lipstick.Str("B"), lipstick.Float(20)),
	)
	if err := tr.Runner().SetState("M_match", "Items", items, "item"); err != nil {
		t.Fatal(err)
	}
	exec, err := tr.Execute(lipstick.Inputs{
		"src": {"Req": lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A")))},
	})
	if err != nil {
		t.Fatal(err)
	}
	matches, ok := exec.Output("match", "Matches")
	if !ok || matches.Len() != 1 {
		t.Fatalf("Matches = %v", matches)
	}

	path := filepath.Join(t.TempDir(), "run.lpsk")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	qp, err := lipstick.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	match := lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(10))
	node, ok, err := qp.FindOutputTuple("match", "Matches", match)
	if err != nil || !ok {
		t.Fatalf("match tuple not found (%v)", err)
	}
	itemA := qp.FindNodes(lipstick.NodeFilter{Label: "item0"})
	if len(itemA) != 1 {
		t.Fatalf("item0 = %v", itemA)
	}
	if !qp.DependsOn(node, itemA[0]) {
		t.Error("the A match must depend on item A (its only derivation)")
	}
	sess := lipstick.NewSession(qp)
	if _, err := sess.ZoomOut("M_match"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ZoomIn(); err != nil {
		t.Fatal(err)
	}
	res := qp.WhatIfDelete(itemA[0])
	if !res.Deleted(node) {
		t.Error("deleting item A must delete the match")
	}
	l := qp.Lineage(node)
	if len(l.Inputs) != 1 || len(l.StateTuples) != 1 {
		t.Errorf("lineage = %+v", l)
	}
	if qp.Polynomial(node).IsZero() {
		t.Error("polynomial must be nonzero")
	}
}

// TestFacadeGranularities runs the same workflow in all three modes.
func TestFacadeGranularities(t *testing.T) {
	for _, gran := range []lipstick.Granularity{lipstick.Plain, lipstick.Coarse, lipstick.Fine} {
		w := buildFacadeWorkflow(t)
		tr, err := lipstick.NewTracker(w, gran)
		if err != nil {
			t.Fatalf("%v: %v", gran, err)
		}
		if err := tr.Runner().SetState("M_match", "Items",
			lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(1))), "i"); err != nil {
			t.Fatal(err)
		}
		exec, err := tr.Execute(lipstick.Inputs{
			"src": {"Req": lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A")))},
		})
		if err != nil {
			t.Fatalf("%v: %v", gran, err)
		}
		out, _ := exec.Output("match", "Matches")
		if out.Len() != 1 {
			t.Errorf("%v: output = %v", gran, out)
		}
	}
}

// TestFacadeEagerStateNodes: the eager option materializes state nodes for
// untouched tuples too, growing the graph relative to the lazy default.
func TestFacadeEagerStateNodes(t *testing.T) {
	sizes := map[string]int{}
	for _, mode := range []string{"lazy", "eager"} {
		w := buildFacadeWorkflow(t)
		var tr *lipstick.Tracker
		var err error
		if mode == "eager" {
			tr, err = lipstick.NewTracker(w, lipstick.Fine, lipstick.WithEagerStateNodes())
		} else {
			tr, err = lipstick.NewTracker(w, lipstick.Fine)
		}
		if err != nil {
			t.Fatal(err)
		}
		items := lipstick.NewBag(
			lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(1)),
			lipstick.NewTuple(lipstick.Str("B"), lipstick.Float(2)),
			lipstick.NewTuple(lipstick.Str("C"), lipstick.Float(3)),
		)
		if err := tr.Runner().SetState("M_match", "Items", items, "i"); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Execute(lipstick.Inputs{
			"src": {"Req": lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A")))},
		}); err != nil {
			t.Fatal(err)
		}
		sizes[mode] = tr.Runner().Graph().NumNodes()
	}
	// Only item A joins; lazy creates one s-node, eager creates three.
	if sizes["eager"] != sizes["lazy"]+2 {
		t.Errorf("eager = %d nodes, lazy = %d; want exactly 2 more (B and C)", sizes["eager"], sizes["lazy"])
	}
}

// TestFacadeOpenAndQueryService covers the cached query path: Open
// returns one shared processor per snapshot version, and the query
// service answers over HTTP from the same cache.
func TestFacadeOpenAndQueryService(t *testing.T) {
	w := buildFacadeWorkflow(t)
	tr, err := lipstick.NewTracker(w, lipstick.Fine)
	if err != nil {
		t.Fatal(err)
	}
	items := lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(10)))
	if err := tr.Runner().SetState("M_match", "Items", items, "item"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Execute(lipstick.Inputs{
		"src": {"Req": lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A")))},
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.lpsk")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}

	qp1, err := lipstick.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	qp2, err := lipstick.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if qp1 != qp2 {
		t.Error("Open did not return the cached processor")
	}
	if got := qp1.FindNodes(lipstick.NodeFilter{Label: "item0"}); len(got) != 1 {
		t.Errorf("item0 via cached processor = %v", got)
	}

	svc := lipstick.NewQueryService(lipstick.NewSnapshotManager(2))
	srv := httptest.NewServer(svc.Handler(path))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("info status = %d", resp.StatusCode)
	}
	var info struct {
		Nodes int `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes == 0 {
		t.Error("served info reported an empty graph")
	}
}

// TestFacadeRegistryAndSession exercises the multi-snapshot registry and
// a copy-on-write mutation session through the public API.
func TestFacadeRegistryAndSession(t *testing.T) {
	w := buildFacadeWorkflow(t)
	tr, err := lipstick.NewTracker(w, lipstick.Fine)
	if err != nil {
		t.Fatal(err)
	}
	items := lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(10)))
	if err := tr.Runner().SetState("M_match", "Items", items, "item"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Execute(lipstick.Inputs{
		"src": {"Req": lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A")))},
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := tr.Save(filepath.Join(dir, "run.lpsk")); err != nil {
		t.Fatal(err)
	}

	reg := lipstick.NewRegistry(nil, lipstick.WithSessionLimit(16))
	names, err := reg.RegisterDir(dir)
	if err != nil || len(names) != 1 || names[0] != "run" {
		t.Fatalf("RegisterDir = %v, %v", names, err)
	}
	base, err := reg.Open("run")
	if err != nil {
		t.Fatal(err)
	}
	baseNodes := base.Graph().NumNodes()

	sess, err := reg.CreateSession("run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ZoomOut("M_match"); err != nil {
		t.Fatal(err)
	}
	var zoomFilter lipstick.NodeFilter
	zoomFilter.Types = append(zoomFilter.Types, lipstick.TypeZoom)
	zoomed := sess.FindNodes(zoomFilter)
	if len(zoomed) != 1 {
		t.Fatalf("zoom nodes in session view = %v", zoomed)
	}
	res, _ := sess.ApplyDelete(zoomed[0])
	if res.Size() == 0 {
		t.Fatal("session delete removed nothing")
	}
	if sess.Stats().Nodes >= baseNodes {
		t.Errorf("session view did not shrink: %d vs base %d", sess.Stats().Nodes, baseNodes)
	}
	if base.Graph().NumNodes() != baseNodes {
		t.Error("session mutation leaked into the shared base graph")
	}

	var nf *lipstick.NotFoundError
	if _, err := reg.Session("sess-404"); err == nil {
		t.Error("unknown session should fail")
	} else if !errorsAs(err, &nf) || nf.Kind != "session" {
		t.Errorf("unknown session error = %v", err)
	}

	svc := lipstick.NewRegistryService(reg)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snaps struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatal(err)
	}
	if snaps.Count != 1 {
		t.Errorf("snapshots = %+v", snaps)
	}
}

func errorsAs(err error, target any) bool { return errors.As(err, target) }

// TestFacadeStreaming drives the streaming surface purely through the
// public API: capture a run as events, replay it, serve it live over
// HTTP via an IngestClient, and fork a session.
func TestFacadeStreaming(t *testing.T) {
	// Capture a tracked run into an EventLog.
	w := buildFacadeWorkflow(t)
	log := lipstick.NewEventLog()
	tr, err := lipstick.NewTracker(w, lipstick.Fine, lipstick.WithEventSink(log.Record))
	if err != nil {
		t.Fatal(err)
	}
	items := lipstick.NewBag(
		lipstick.NewTuple(lipstick.Str("A"), lipstick.Float(10)),
		lipstick.NewTuple(lipstick.Str("B"), lipstick.Float(20)),
	)
	if err := tr.Runner().SetState("M_match", "Items", items, "item"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Execute(lipstick.Inputs{
		"src": {"Req": lipstick.NewBag(lipstick.NewTuple(lipstick.Str("A")))},
	}); err != nil {
		t.Fatal(err)
	}
	events := log.Drain()
	if len(events) == 0 {
		t.Fatal("no events captured")
	}

	// Replay reconstructs the run's graph.
	replayed, err := lipstick.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Runner().Graph().StructurallyEqual(replayed) {
		t.Fatal("replay differs from the tracked graph")
	}

	// A LiveGraph ingests the stream batch by batch.
	lg := lipstick.NewLiveGraph("facade")
	if _, err := lg.Append(1, events); err != nil {
		t.Fatal(err)
	}
	if lg.Seq() != uint64(len(events)) {
		t.Fatalf("live seq %d, want %d", lg.Seq(), len(events))
	}

	// Stream to a server via IngestClient and query the live graph.
	svc := lipstick.NewQueryService(nil)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()
	client := lipstick.NewIngestClient(srv.URL, "wire", 16)
	for _, ev := range events {
		client.Record(ev)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/snapshots/wire/find?type=m")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var find struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&find); err != nil {
		t.Fatal(err)
	}
	if find.Count == 0 {
		t.Fatal("live find over the facade pipeline returned nothing")
	}

	// Session forking through the registry facade.
	path := filepath.Join(t.TempDir(), "run.lpsk")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	reg := lipstick.NewRegistry(nil)
	if err := reg.Register("run", path); err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession("run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ZoomOut("M_match"); err != nil {
		t.Fatal(err)
	}
	fork, err := reg.ForkSession(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if fork.Changes() != sess.Changes() || fork.ID() == sess.ID() {
		t.Fatalf("fork state: changes %d vs %d", fork.Changes(), sess.Changes())
	}
}
