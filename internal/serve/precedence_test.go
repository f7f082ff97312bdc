package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lipstick/internal/store"
)

// TestReadTargetPrecedence pins which target a read resolves to: a
// name-routed live graph, then a name-routed static snapshot, then the
// handler's explicit default snapshot (by path, even when its name is
// taken), then the only static snapshot, then the only live graph. A
// live answer is told apart by its X-Lipstick-Seq header and its node
// count; error answers from a live target carry the header too.
func TestReadTargetPrecedence(t *testing.T) {
	path := saveSnapshot(t)
	_, events := captureRun(t)
	var batch bytes.Buffer
	if err := store.EncodeEventBatch(&batch, 1, events); err != nil {
		t.Fatal(err)
	}

	const (
		static = "static"
		live   = "live"
		none   = "none" // an error from no target: no seq header
	)
	type read struct {
		path   string
		status int
		target string
	}
	cases := []struct {
		name     string
		defPath  bool     // build the handler with path as its default
		register []string // names path is registered under first
		lives    []string // live graphs ingested before the handler is built
		reads    []read
	}{
		{
			name: "explicit default against a registered live graph", defPath: true, lives: []string{"l"},
			reads: []read{
				{"/v1/info", 200, static},
				{"/v1/snapshots/serve/info", 200, static},
				{"/v1/snapshots/l/info", 200, live},
			},
		},
		{
			name: "explicit default whose name a live graph holds", defPath: true, lives: []string{"serve"},
			reads: []read{
				{"/v1/info", 200, static},
				{"/v1/snapshots/serve/info", 200, live},
			},
		},
		{
			name: "dir mode with one static and one live graph", register: []string{"a"}, lives: []string{"l"},
			reads: []read{
				{"/v1/info", 200, static},
				{"/v1/snapshots/a/info", 200, static},
				{"/v1/snapshots/l/info", 200, live},
			},
		},
		{
			name: "dir mode with only a live graph", lives: []string{"l"},
			reads: []read{
				{"/v1/info", 200, live},
				{"/v1/subgraph?node=zz", 400, live},
				{"/v1/snapshots/l/info", 200, live},
				{"/v1/snapshots/ghost/info", 404, none},
			},
		},
		{
			name: "dir mode with two static snapshots", register: []string{"a", "b"},
			reads: []read{
				{"/v1/info", 400, none},
				{"/v1/snapshots/b/info", 200, static},
			},
		},
		{
			name: "name-routed live graph next to a static one", register: []string{"a"}, lives: []string{"l"},
			reads: []read{
				{"/v1/snapshots/l/find?type=m", 200, live},
				{"/v1/snapshots/l/lineage?node=0", 200, live},
				{"/v1/snapshots/l/subgraph?node=zz", 400, live},
				{"/v1/snapshots/l/find?type=bogus", 400, live},
				{"/v1/snapshots/l/dot", 200, live},
				{"/v1/snapshots/a/find?type=m", 200, static},
				{"/v1/snapshots/a/subgraph?node=zz", 400, static},
				{"/v1/snapshots/a/dot", 200, static},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(nil)
			for _, name := range tc.register {
				if err := svc.Registry().Register(name, path); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range tc.lives {
				if _, err := svc.Ingest(name, bytes.NewReader(batch.Bytes())); err != nil {
					t.Fatal(err)
				}
			}
			def := ""
			if tc.defPath {
				def = path
			}
			srv := httptest.NewServer(svc.Handler(def))
			defer srv.Close()
			for _, rd := range tc.reads {
				status, seq, _, body := fetchRaw(t, srv, rd.path)
				if status != rd.status {
					t.Fatalf("GET %s = %d, want %d (body %s)", rd.path, status, rd.status, body)
				}
				if got := seq != ""; got != (rd.target == live) {
					t.Fatalf("GET %s: X-Lipstick-Seq %q, want a %s target", rd.path, seq, rd.target)
				}
				var info InfoResult
				if status == 200 && json.Unmarshal(body, &info) == nil && info.Nodes > 0 {
					if isLive := info.Nodes > 100; isLive != (rd.target == live) {
						t.Fatalf("GET %s answered %d nodes, want the %s target", rd.path, info.Nodes, rd.target)
					}
				}
			}
		})
	}
}

// TestExportsAreStampedNotCached: a live target's queries and exports
// both carry X-Lipstick-Seq, a repeated query is a cache hit, and a
// repeated export never is.
func TestExportsAreStampedNotCached(t *testing.T) {
	_, events := captureRun(t)
	svc := NewService(nil)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()
	postBatch(t, srv, "l", 1, events)

	for _, p := range []string{"/v1/snapshots/l/find?type=m", "/v1/dot", "/v1/snapshots/l/opm", "/v1/json"} {
		var bodies [2][]byte
		for i := range bodies {
			status, seq, cache, body := fetchRaw(t, srv, p)
			if status != http.StatusOK || seq == "" {
				t.Fatalf("GET %s (%d) = %d, X-Lipstick-Seq %q", p, i, status, seq)
			}
			wantHit := i == 1 && p == "/v1/snapshots/l/find?type=m"
			if (cache == "hit") != wantHit {
				t.Fatalf("GET %s (%d): X-Lipstick-Cache %q, want hit %v", p, i, cache, wantHit)
			}
			bodies[i] = body
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("GET %s answered two bodies at one seq", p)
		}
	}
}
