package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lipstick/internal/provgraph"
)

// lockedBuffer is a bytes.Buffer safe for the server's concurrent
// ErrorLog writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSessionReadsDuringZoomChurn: four readers run subgraph, lineage,
// find and a what-if delete on a session's zoom node while one goroutine
// zooms the same session out and back in. A ZoomIn right after its
// ZoomOut rolls the overlay back and drops the zoom node, so a read must
// check the node id and answer from one session state: every answer is a
// 200 or a 4xx with a JSON error, no request loses its connection, and
// the server logs nothing (a handler panic logs "http: panic serving").
func TestSessionReadsDuringZoomChurn(t *testing.T) {
	var serverLog lockedBuffer
	srv := httptest.NewUnstartedServer(NewService(nil).Handler(saveSnapshot(t)))
	srv.Config.ErrorLog = log.New(&serverLog, "", 0)
	srv.Start()
	defer srv.Close()

	var sess SessionResult
	postJSON(t, srv.URL+"/v1/sessions", map[string]string{"snapshot": "serve"}, 200, &sess)
	u := srv.URL + "/v1/sessions/" + sess.ID
	zoomOut := SessionZoomRequest{Modules: []string{"M_match"}}
	postJSON(t, u+"/zoom", zoomOut, 200, nil)
	var zoomNodes FindResult
	getJSON(t, u+"/find?type=zoom", 200, &zoomNodes)
	if zoomNodes.Count != 1 {
		t.Fatalf("session find zoom = %+v", zoomNodes)
	}
	node := zoomNodes.Nodes[0]
	postJSON(t, u+"/zoom", SessionZoomRequest{In: true}, 200, nil)

	deleteBody, err := json.Marshal(SessionDeleteRequest{Nodes: []provgraph.NodeID{node}, WhatIf: true})
	if err != nil {
		t.Fatal(err)
	}
	reads := []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(fmt.Sprintf("%s/subgraph?node=%d", u, node)) },
		func() (*http.Response, error) { return http.Get(fmt.Sprintf("%s/lineage?node=%d", u, node)) },
		func() (*http.Response, error) { return http.Get(u + "/find?type=zoom") },
		func() (*http.Response, error) {
			return http.Post(u+"/delete", "application/json", bytes.NewReader(deleteBody))
		},
	}

	// check reports what is wrong with one answer, or "".
	check := func(resp *http.Response, err error) string {
		if err != nil {
			return fmt.Sprintf("transport error: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Sprintf("reading the body: %v", err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return ""
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			var body map[string]any
			if json.Unmarshal(raw, &body) == nil && body["error"] != nil {
				return ""
			}
		}
		return fmt.Sprintf("status %d, body %q", resp.StatusCode, raw)
	}

	const perReader = 4000
	deadline := time.Now().Add(2 * time.Second)
	var stop atomic.Bool
	var wg sync.WaitGroup
	failures := make([]string, len(reads)+1)
	for k, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader && !stop.Load() && time.Now().Before(deadline); i++ {
				if msg := check(read()); msg != "" {
					failures[k] = fmt.Sprintf("reader %d, request %d: %s", k, i, msg)
					stop.Store(true)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load() && time.Now().Before(deadline); i++ {
			req := zoomOut
			if i%2 == 1 {
				req = SessionZoomRequest{In: true}
			}
			body, _ := json.Marshal(req)
			resp, err := http.Post(u+"/zoom", "application/json", bytes.NewReader(body))
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			if resp != nil {
				resp.Body.Close()
			}
			if err != nil {
				failures[len(reads)] = fmt.Sprintf("zoom %d: %v", i, err)
				stop.Store(true)
			}
		}
	}()
	wg.Wait()
	for _, msg := range failures {
		if msg != "" {
			t.Error(msg)
		}
	}
	if logged := serverLog.String(); logged != "" {
		t.Errorf("server log is not empty:\n%s", firstLines(logged, 12))
	}
}

// firstLines returns s cut to its first n lines.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
