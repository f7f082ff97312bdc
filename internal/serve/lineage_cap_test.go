package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// saveDiamondChain persists depth shared diamonds over the token x0 —
// each x_i is x_{i-1}·a_i + x_{i-1}·b_i — and returns the snapshot path
// and x_depth, whose printed expression has more than 2^depth leaves.
func saveDiamondChain(t *testing.T, depth int) (string, provgraph.NodeID) {
	t.Helper()
	g := provgraph.New()
	x := g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeWorkflowInput, Label: "x0"})
	for i := 1; i <= depth; i++ {
		sum := g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpPlus})
		for _, side := range []string{"a", "b"} {
			tok := g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeBaseTuple, Label: side + strconv.Itoa(i)})
			prod := g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpTimes})
			g.AddEdge(x, prod)
			g.AddEdge(tok, prod)
			g.AddEdge(prod, sum)
		}
		x = sum
	}
	path := filepath.Join(t.TempDir(), "diamonds.lpsk")
	if err := store.Save(path, &store.Snapshot{Graph: g}); err != nil {
		t.Fatal(err)
	}
	return path, x
}

// TestLineageProvenanceCapped asks for the lineage of a node whose
// expression has ~2^60 leaves, over HTTP and in a session: the answer
// must come back, cut at provgraph.MaxExprBytes on a rune boundary and
// marked provenanceTruncated. A small node's answer carries no marker.
func TestLineageProvenanceCapped(t *testing.T) {
	path, top := saveDiamondChain(t, 60)
	svc := NewService(nil)
	defer svc.Registry().Close()
	srv := httptest.NewServer(svc.Handler(path))
	defer srv.Close()

	var sess SessionResult
	postJSON(t, srv.URL+"/v1/sessions", map[string]string{"snapshot": "diamonds"}, 200, &sess)
	for _, url := range []string{
		srv.URL + "/v1/lineage",
		srv.URL + "/v1/snapshots/diamonds/lineage",
		srv.URL + "/v1/sessions/" + sess.ID + "/lineage",
	} {
		var lin LineageResult
		getJSON(t, fmt.Sprintf("%s?node=%d", url, top), 200, &lin)
		if !lin.ProvenanceTruncated || len(lin.Provenance) > provgraph.MaxExprBytes ||
			len(lin.Provenance) < provgraph.MaxExprBytes-utf8.UTFMax || !utf8.ValidString(lin.Provenance) {
			t.Fatalf("%s: %d provenance bytes, truncated %v; want a whole-rune cut at %d",
				url, len(lin.Provenance), lin.ProvenanceTruncated, provgraph.MaxExprBytes)
		}
		if lin.AncestorCount != 5*60 {
			t.Errorf("%s: %d ancestors, want %d", url, lin.AncestorCount, 5*60)
		}

		// x_1 (node 1) = x0·a1 + x0·b1 renders whole: no marker in the
		// body.
		resp, err := http.Get(url + "?node=1")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), `"provenance":"x0·a1 + x0·b1"`) || strings.Contains(string(body), "provenanceTruncated") {
			t.Errorf("%s?node=1: body %s", url, body)
		}
	}
}
