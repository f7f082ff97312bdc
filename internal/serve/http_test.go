package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lipstick/internal/core"
	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/testutil"
	"lipstick/internal/workflow"
)

// saveSnapshot tracks a small two-module workflow (request -> stateful
// match) and persists it, returning the snapshot path.
func saveSnapshot(t testing.TB) string {
	t.Helper()
	str := nested.ScalarType(nested.KindString)
	flt := nested.ScalarType(nested.KindFloat)
	reqSchema := nested.NewSchema(nested.Field{Name: "Sku", Type: str})
	itemSchema := nested.NewSchema(
		nested.Field{Name: "Sku", Type: str},
		nested.Field{Name: "Price", Type: flt},
	)
	src := &workflow.Module{Name: "M_src", Out: nested.RelationSchemas{"Req": reqSchema}}
	match := &workflow.Module{
		Name:  "M_match",
		In:    nested.RelationSchemas{"Req": reqSchema},
		State: nested.RelationSchemas{"Items": itemSchema},
		Out:   nested.RelationSchemas{"Matches": itemSchema},
		Program: `
MJ = JOIN Items BY Sku, Req BY Sku;
Matches = FOREACH MJ GENERATE Items::Sku AS Sku, Items::Price AS Price;
`,
		Registry: pig.NewRegistry(),
	}
	w := workflow.New()
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

	tr, err := core.NewTracker(w, workflow.Fine)
	if err != nil {
		t.Fatal(err)
	}
	items := nested.NewBag(
		nested.NewTuple(nested.Str("A"), nested.Float(10)),
		nested.NewTuple(nested.Str("B"), nested.Float(99)),
	)
	if err := tr.Runner().SetState("M_match", "Items", items, "item"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Execute(workflow.Inputs{"src": {"Req": nested.NewBag(nested.NewTuple(nested.Str("A")))}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.lpsk")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func testServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	svc := NewService(nil)
	srv := httptest.NewServer(svc.Handler(saveSnapshot(t)))
	t.Cleanup(srv.Close)
	return srv, svc
}

// getJSON fetches a URL, asserts the status, and decodes the JSON body.
func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body: %s)", url, resp.StatusCode, wantStatus, body)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: invalid JSON %q: %v", url, body, err)
		}
	}
}

func TestHTTPInfoOutputsHealth(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := testServer(t)

	var health map[string]any
	getJSON(t, srv.URL+"/healthz", 200, &health)
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}

	var info InfoResult
	getJSON(t, srv.URL+"/v1/info", 200, &info)
	if info.Nodes == 0 || info.Edges == 0 || info.Invocations != 1 {
		t.Errorf("info = %+v", info)
	}

	var outs OutputsResult
	getJSON(t, srv.URL+"/v1/outputs", 200, &outs)
	if len(outs.Relations) == 0 {
		t.Fatalf("outputs = %+v", outs)
	}
	found := false
	for _, rel := range outs.Relations {
		for _, tu := range rel.Tuples {
			if strings.Contains(tu.Tuple, "10") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("matched tuple missing from %+v", outs)
	}
}

func TestHTTPZoom(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := testServer(t)

	var zoom ZoomResult
	getJSON(t, srv.URL+"/v1/zoom?module=M_match", 200, &zoom)
	if zoom.NodesAfter >= zoom.NodesBefore || zoom.HiddenNodes == 0 || zoom.ZoomNodes == 0 {
		t.Errorf("zoom = %+v", zoom)
	}

	// Zoom must not mutate the shared cached processor: ask again.
	var again ZoomResult
	getJSON(t, srv.URL+"/v1/zoom?module=M_match", 200, &again)
	if again.NodesBefore != zoom.NodesBefore || again.NodesAfter != zoom.NodesAfter || again.HiddenNodes != zoom.HiddenNodes {
		t.Errorf("second zoom differs: %+v vs %+v", again, zoom)
	}

	var errBody map[string]string
	getJSON(t, srv.URL+"/v1/zoom?module=M_nope", 400, &errBody)
	if !strings.Contains(errBody["error"], "M_nope") {
		t.Errorf("error = %v", errBody)
	}
	getJSON(t, srv.URL+"/v1/zoom", 400, &errBody)
}

func TestHTTPDeleteSubgraphLineage(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := testServer(t)

	// Find a base tuple to query from.
	var find FindResult
	getJSON(t, srv.URL+"/v1/find?type=tuple&label=item0", 200, &find)
	if find.Count != 1 {
		t.Fatalf("find = %+v", find)
	}
	node := fmt.Sprint(find.Nodes[0])

	var del DeleteResult
	getJSON(t, srv.URL+"/v1/delete?node="+node, 200, &del)
	if del.RemovedCount == 0 || len(del.Removed) != del.RemovedCount {
		t.Errorf("delete = %+v", del)
	}

	var sub SubgraphResult
	getJSON(t, srv.URL+"/v1/subgraph?node="+node, 200, &sub)
	if sub.Size == 0 || len(sub.Nodes) != sub.Size {
		t.Errorf("subgraph = %+v", sub)
	}

	var lin LineageResult
	getJSON(t, srv.URL+"/v1/lineage?node="+node, 200, &lin)
	if lin.Provenance == "" {
		t.Errorf("lineage = %+v", lin)
	}

	// Lineage of an output tuple classifies its ancestry.
	var matches FindResult
	getJSON(t, srv.URL+"/v1/find?type=o&module=M_match", 200, &matches)
	if matches.Count == 0 {
		t.Fatal("no module outputs found")
	}
	getJSON(t, srv.URL+"/v1/lineage?node="+fmt.Sprint(matches.Nodes[0]), 200, &lin)
	if lin.AncestorCount == 0 || len(lin.Modules) == 0 {
		t.Errorf("output lineage = %+v", lin)
	}

	var errBody map[string]string
	getJSON(t, srv.URL+"/v1/delete?node=xx", 400, &errBody)
	if !strings.Contains(errBody["error"], "invalid node id") {
		t.Errorf("error = %v", errBody)
	}
	getJSON(t, srv.URL+"/v1/subgraph?node=999999", 400, nil)
	getJSON(t, srv.URL+"/v1/lineage?node=-1", 400, nil)
	getJSON(t, srv.URL+"/v1/find?type=bogus", 400, nil)
	getJSON(t, srv.URL+"/v1/find?class=q", 400, nil)
	getJSON(t, srv.URL+"/v1/find?op=frobnicate", 400, nil)
}

func TestHTTPExports(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := testServer(t)

	resp, err := http.Get(srv.URL + "/v1/dot")
	if err != nil {
		t.Fatal(err)
	}
	dot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(dot), "digraph") {
		t.Errorf("dot: status %d, body %.60s", resp.StatusCode, dot)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "graphviz") {
		t.Errorf("dot content type = %q", ct)
	}

	var opmDoc map[string]any
	getJSON(t, srv.URL+"/v1/opm", 200, &opmDoc)
	var snapDoc map[string]any
	getJSON(t, srv.URL+"/v1/json", 200, &snapDoc)
	if _, ok := snapDoc["nodes"]; !ok {
		t.Errorf("snapshot JSON missing nodes: %v", snapDoc)
	}
}

func TestHTTPErrorsAndMethods(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	svc := NewService(nil)
	missing := filepath.Join(t.TempDir(), "missing.lpsk")
	srv := httptest.NewServer(svc.Handler(missing))
	defer srv.Close()

	var errBody map[string]string
	getJSON(t, srv.URL+"/v1/info", 404, &errBody)
	if errBody["error"] == "" {
		t.Errorf("missing snapshot error = %v", errBody)
	}

	srv2, _ := testServer(t)
	resp, err := http.Post(srv2.URL+"/v1/info", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/info = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(srv2.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route = %d, want 404", resp.StatusCode)
	}
}

// TestCorruptOutputsSectionAnswersError: a mapped snapshot whose outputs
// section fails to decode (its relation count overwritten past the
// decoder's limit; the graph sections stay intact) answers that error
// from every outputs accessor and a JSON 500 from /v1/outputs and
// /v1/json, never an empty 200 or "not found".
func TestCorruptOutputsSectionAnswersError(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := saveSnapshot(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The outputs blob: one relation, execution 0, match.Matches.
	head := []byte("\x01\x00\x05match\x07Matches")
	at := bytes.Index(data, head)
	if at < 0 || bytes.Count(data, head) != 1 {
		t.Fatalf("outputs blob not found once in %s", path)
	}
	copy(data[at:], []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	qp, err := core.Load(path)
	if err != nil {
		// Without mmap the open decodes the outputs eagerly and fails.
		t.Skipf("buffered open rejects the corruption: %v", err)
	}
	if outs, err := qp.Outputs(); err == nil {
		t.Errorf("Outputs = %d relations, nil error", len(outs))
	}
	if _, ok, err := qp.Output(0, "match", "Matches"); err == nil {
		t.Errorf("Output: ok=%v, nil error", ok)
	}
	if _, ok, err := qp.FindOutputTuple("match", "Matches", nested.NewTuple(nested.Str("A"), nested.Float(10))); err == nil {
		t.Errorf("FindOutputTuple: ok=%v, nil error", ok)
	}

	srv := httptest.NewServer(NewService(nil).Handler(path))
	defer srv.Close()
	getJSON(t, srv.URL+"/v1/info", 200, nil)
	for _, route := range []string{"/v1/outputs", "/v1/json"} {
		var body map[string]string
		getJSON(t, srv.URL+route, 500, &body)
		if !strings.Contains(body["error"], "output count") {
			t.Errorf("GET %s error = %q, want the decode error", route, body["error"])
		}
	}
}

// TestHTTPCachedProcessorIsShared asserts repeated requests hit one
// loaded processor (the tentpole: serve answers from the cache, not
// load-per-query).
func TestHTTPCachedProcessorIsShared(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := saveSnapshot(t)
	svc := NewService(core.NewSnapshotManager(2))
	srv := httptest.NewServer(svc.Handler(path))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		getJSON(t, srv.URL+"/v1/info", 200, nil)
	}
	qp1, err := svc.Manager().Open(path)
	if err != nil {
		t.Fatal(err)
	}
	qp2, err := svc.Manager().Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if qp1 != qp2 {
		t.Error("manager handed out distinct processors for one snapshot")
	}
	if svc.Manager().Len() != 1 {
		t.Errorf("cache len = %d", svc.Manager().Len())
	}
}
