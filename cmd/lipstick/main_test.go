package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/serve"
)

// TestCLISmoke drives the quickstart flow end-to-end through the command
// layer in a temp dir: track a demo run (parse -> execute -> store), then
// load the snapshot back and run every query subcommand over it.
func TestCLISmoke(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "run.lpsk")
	muteStdout(t)

	if err := run([]string{"demo", "-o", snap}); err != nil {
		t.Fatalf("demo: %v", err)
	}
	info, err := os.Stat(snap)
	if err != nil {
		t.Fatalf("demo did not write the snapshot: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("snapshot is empty")
	}

	for _, cmd := range [][]string{
		{"info", snap},
		{"outputs", snap},
		{"zoom", snap, "M_dealer1"},
		{"delete", snap, "0"},
		{"subgraph", snap, "0"},
		{"lineage", snap, "0"},
		{"find", snap, "-type", "m"},
		{"find", snap, "-module", "M_dealer1", "-type", "o"},
		{"find", snap, "-class", "v", "-op", "agg"},
		{"dot", snap},
		{"opm", snap},
		{"json", snap},
	} {
		if err := run(cmd); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
}

// TestCLIErrors checks argument validation paths.
func TestCLIErrors(t *testing.T) {
	for _, cmd := range [][]string{
		nil,
		{"bogus"},
		{"info"},
		{"demo", "-o"},
		{"info", filepath.Join(t.TempDir(), "missing.lpsk")},
		{"serve"},
		{"serve", "-addr", ":0"},
		{"serve", "-addr", ":0", filepath.Join(t.TempDir(), "missing.lpsk")},
		{"serve", "-bogus", "x", "y"},
	} {
		if err := run(cmd); err == nil {
			t.Fatalf("%v: expected an error", cmd)
		}
	}
	// An unknown demo flag is a usage error.
	if err := run([]string{"demo", "-p", "4"}); err == nil || !strings.Contains(err.Error(), "usage: lipstick demo") {
		t.Fatalf("demo -p: want a usage error, got %v", err)
	}
}

// TestTrackStreamsToServer runs `lipstick track -remote` against an
// in-process server and asserts the streamed live graph answers queries
// and matches the locally saved batch snapshot.
func TestTrackStreamsToServer(t *testing.T) {
	dir := t.TempDir()
	muteStdout(t)
	svc := serve.NewService(nil)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()

	snap := filepath.Join(dir, "run.lpsk")
	err := run([]string{"track", "-remote", srv.URL, "-name", "cli", "-cars", "80", "-execs", "2", "-o", snap, "-batch", "64"})
	if err != nil {
		t.Fatalf("track: %v", err)
	}
	resp, err := http.Get(srv.URL + "/v1/snapshots/cli/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Nodes int `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes == 0 {
		t.Fatal("streamed live graph is empty")
	}
	// The local batch snapshot and the streamed live graph agree.
	var local struct {
		Nodes int
	}
	qp, err := serve.NewService(nil).Info(snap)
	if err != nil {
		t.Fatal(err)
	}
	local.Nodes = qp.Nodes
	if local.Nodes != info.Nodes {
		t.Fatalf("live graph has %d nodes, local snapshot %d", info.Nodes, local.Nodes)
	}
	// track argument validation.
	for _, cmd := range [][]string{
		{"track"},
		{"track", "-remote"},
		{"track", "-remote", srv.URL, "-cars", "x"},
		{"track", "-bogus", "x"},
	} {
		if err := run(cmd); err == nil {
			t.Fatalf("%v: expected an error", cmd)
		}
	}
}

// TestServeLiveDirRecovers boots serve with a -live WAL dir, streams a
// run in, kills the server, reboots on the same dir, and asserts the
// recovered live graph still answers.
func TestServeLiveDirRecovers(t *testing.T) {
	dir := t.TempDir()
	muteStdout(t)
	boot := func() (*httptest.Server, *serve.Service) {
		reg := core.NewRegistry(nil, core.WithLiveDir(filepath.Join(dir, "wal")))
		t.Cleanup(func() { _ = reg.Close() }) // after the assertions, so the first boot still models a kill
		svc := serve.NewRegistryService(reg)
		if _, err := reg.RestoreLiveDir(); err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(svc.Handler("")), svc
	}
	srv, _ := boot()
	if err := run([]string{"track", "-remote", srv.URL, "-name", "durable", "-cars", "80", "-execs", "2"}); err != nil {
		t.Fatalf("track: %v", err)
	}
	var before struct {
		Seq uint64 `json:"seq"`
	}
	resp, err := http.Get(srv.URL + "/v1/ingest/durable")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&before); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close() // simulated restart

	srv2, _ := boot()
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/v1/ingest/durable")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var after struct {
		Seq   uint64 `json:"seq"`
		Nodes int    `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.Seq != before.Seq || after.Nodes == 0 {
		t.Fatalf("recovery lost events: before seq %d, after %+v", before.Seq, after)
	}
}

// TestCLIFindErrors checks the find flag parser against a real snapshot.
func TestCLIFindErrors(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "run.lpsk")
	muteStdout(t)
	if err := run([]string{"demo", "-o", snap}); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range [][]string{
		{"find", snap, "-type"},
		{"find", snap, "-frob", "x"},
		{"find", snap, "-type", "bogus"},
		{"find", snap, "-class", "q"},
	} {
		if err := run(cmd); err == nil {
			t.Fatalf("%v: expected an error", cmd)
		}
	}
}

// TestServeEndToEnd boots the HTTP service on a loopback port via the
// same handler `lipstick serve` installs and round-trips two queries —
// the CLI and the server sharing one code path is the point.
func TestServeEndToEnd(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "run.lpsk")
	muteStdout(t)
	if err := run([]string{"demo", "-o", snap}); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(nil)
	srv := httptest.NewServer(svc.Handler(snap))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("info status = %d", resp.StatusCode)
	}
	var info serve.InfoResult
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes == 0 {
		t.Errorf("info = %+v", info)
	}

	resp2, err := http.Get(srv.URL + "/v1/lineage?node=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var lin serve.LineageResult
	if err := json.NewDecoder(resp2.Body).Decode(&lin); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != 200 {
		t.Fatalf("lineage status = %d", resp2.StatusCode)
	}
}

// TestCLIDeleteRejectsBadNode checks node-id validation against a real
// snapshot.
func TestCLIDeleteRejectsBadNode(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "run.lpsk")
	muteStdout(t)
	if err := run([]string{"demo", "-o", snap}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"delete", snap, "not-a-number"})
	if err == nil || !strings.Contains(err.Error(), "invalid node id") {
		t.Fatalf("want invalid node id error, got %v", err)
	}
}

// TestServeGracefulShutdown drives the serve loop directly: cancel the
// context (what SIGINT/SIGTERM do via signal.NotifyContext) and assert
// the server drains and returns nil.
func TestServeGracefulShutdown(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "run.lpsk")
	muteStdout(t)
	if err := run([]string{"demo", "-o", snap}); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveHTTP(ctx, ln, svc.Handler(snap)) }()

	// The server must answer while running...
	url := "http://" + ln.Addr().String()
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}

	// ...and drain cleanly when the signal context fires.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestServeLiveShutdownRemovesTempFiles runs `lipstick serve -live`
// itself, streams a run into it, and stops it with SIGTERM: the drain
// must close the registry, so no live stream leaves a temp file (its
// spare WAL segment) in the live directory.
func TestServeLiveShutdownRemovesTempFiles(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("a process cannot send itself SIGTERM on windows")
	}
	live := filepath.Join(t.TempDir(), "wal")
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	addr := make(chan string, 1)
	go func() {
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "lipstick: serving on "); ok {
				addr <- a
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-live", live}) }()
	var url string
	select {
	case url = <-addr:
	case err := <-done:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never came up")
	}
	if err := run([]string{"track", "-remote", url, "-name", "durable", "-cars", "40", "-execs", "1"}); err != nil {
		t.Fatalf("track: %v", err)
	}

	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	w.Close()
	var temps []string
	err = filepath.WalkDir(live, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			temps = append(temps, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) > 0 {
		t.Errorf("a clean shutdown left temp files: %v", temps)
	}
}

// TestServeDirRegistry boots the multi-snapshot mode over a scanned
// directory and round-trips a session through it.
func TestServeDirRegistry(t *testing.T) {
	dir := t.TempDir()
	muteStdout(t)
	for _, name := range []string{"alpha.lpsk", "beta.lpsk"} {
		if err := run([]string{"demo", "-o", filepath.Join(dir, name)}); err != nil {
			t.Fatal(err)
		}
	}
	svc := serve.NewService(nil)
	names, err := svc.Registry().RegisterDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()

	var snaps struct {
		Count int `json:"count"`
	}
	getBody(t, srv.URL+"/v1/snapshots", &snaps)
	if snaps.Count != 2 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	var sess struct {
		ID string `json:"id"`
	}
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"snapshot":"alpha"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("create session = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	if sess.ID == "" {
		t.Fatal("no session id")
	}

	// Empty dirs fail fast.
	if err := run([]string{"serve", "-addr", ":0", "-dir", t.TempDir()}); err == nil {
		t.Fatal("serve over an empty dir should fail")
	}
}

func getBody(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// muteStdout silences the subcommands' stdout for the test's duration.
func muteStdout(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = stdout
		null.Close()
	})
}

// TestLoadgenAgainstServer drives `lipstick loadgen` at a small scale
// against an in-process durable server and checks it applies events.
func TestLoadgenAgainstServer(t *testing.T) {
	muteStdout(t)
	reg := core.NewRegistry(nil, core.WithLiveDir(filepath.Join(t.TempDir(), "wal")))
	defer reg.Close()
	svc := serve.NewRegistryService(reg)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()

	err := run([]string{"loadgen", "-remote", srv.URL, "-streams", "2",
		"-duration", "500ms", "-batch", "64", "-cars", "60", "-execs", "2"})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	stats := svc.Stats()
	if stats.Ingest.GroupCommits < 1 {
		t.Fatalf("loadgen produced no group commits: %+v", stats.Ingest)
	}

	// Argument validation.
	for _, cmd := range [][]string{
		{"loadgen"},
		{"loadgen", "-remote"},
		{"loadgen", "-remote", srv.URL, "-streams", "x"},
		{"loadgen", "-remote", srv.URL, "-bogus", "1"},
	} {
		if err := run(cmd); err == nil {
			t.Fatalf("%v: expected an error", cmd)
		}
	}
}

// TestServeFlagParsing covers the ingest-pipeline knobs and the flags
// that no longer exist: a live graph has one read path and one freshness
// rule, so the publish-cadence and staleness flags are unknown.
func TestServeFlagParsing(t *testing.T) {
	for _, cmd := range [][]string{
		{"serve", "-gcdelay", "bogus", "x.lpsk"},
		{"serve", "-gcbytes", "x", "y.lpsk"},
		{"serve", "-queue", "x", "y.lpsk"},
	} {
		if err := run(cmd); err == nil {
			t.Fatalf("%v: expected an error", cmd)
		}
	}
	for _, cmd := range [][]string{
		{"serve", "-nogroup", "x.lpsk"},
		{"serve", "-pubevery", "64", "x.lpsk"},
		{"serve", "-pubstale", "25ms", "x.lpsk"},
	} {
		if err := run(cmd); err == nil || !strings.HasPrefix(err.Error(), "usage: lipstick serve") {
			t.Fatalf("%v: want the unknown-flag usage error, got %v", cmd, err)
		}
	}
}
