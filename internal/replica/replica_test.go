package replica

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/serve"
	"lipstick/internal/store"
	"lipstick/internal/testutil"
)

// chainEvents builds n valid consecutive events (a growing node chain).
func chainEvents(n int) []provgraph.Event {
	events := make([]provgraph.Event, 0, n)
	nodes := 0
	for len(events) < n {
		ev := provgraph.Event{Kind: provgraph.EvAddNode, Node: provgraph.Node{
			ID: provgraph.NodeID(nodes), Class: provgraph.ClassP,
			Type: provgraph.TypeBaseTuple, Label: "tok", Inv: -1,
		}}
		events = append(events, ev)
		nodes++
		if nodes >= 2 && len(events) < n {
			events = append(events, provgraph.Event{
				Kind: provgraph.EvAddEdge,
				Src:  provgraph.NodeID(nodes - 2), Dst: provgraph.NodeID(nodes - 1),
			})
		}
	}
	return events
}

// newPrimary boots a durable registry behind the real HTTP handler.
func newPrimary(t *testing.T) (*core.Registry, *serve.Service, *httptest.Server) {
	t.Helper()
	reg := core.NewRegistry(nil, core.WithLiveDir(t.TempDir()))
	svc := serve.NewRegistryService(reg)
	srv := httptest.NewServer(svc.Handler(""))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return reg, svc, srv
}

// ingest streams events into one named graph on the server, starting at
// firstSeq (so tests can extend an existing stream).
func ingest(t *testing.T, serverURL, name string, firstSeq uint64, events []provgraph.Event) {
	t.Helper()
	const batch = 64
	for next := 0; next < len(events); next += batch {
		end := next + batch
		if end > len(events) {
			end = len(events)
		}
		seq, err := serve.Ingest(serverURL, name, firstSeq+uint64(next), events[next:end])
		if err != nil {
			t.Fatalf("ingesting into %s at %d: %v", name, firstSeq+uint64(next), err)
		}
		if want := firstSeq - 1 + uint64(end); seq != want {
			t.Fatalf("ingest acked seq %d, want %d", seq, want)
		}
	}
}

// newFollower attaches a fast-polling manager over a fresh registry.
func newFollower(t *testing.T, primaryURL string) (*core.Registry, *Manager) {
	t.Helper()
	reg := core.NewRegistry(nil, core.WithLiveDir(t.TempDir()))
	t.Cleanup(func() { reg.Close() })
	mgr := NewManager(reg, primaryURL,
		WithPollInterval(2*time.Millisecond),
		WithLogf(t.Logf))
	t.Cleanup(func() { _ = mgr.Close() })
	return reg, mgr
}

// waitApplied blocks until the follower has applied wantSeq of name.
func waitApplied(t *testing.T, mgr *Manager, name string, wantSeq uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if lag, ok := mgr.Lag(name); ok && lag.AppliedSeq >= wantSeq {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	lag, ok := mgr.Lag(name)
	t.Fatalf("follower never reached seq %d of %s (ok=%v lag=%+v)", wantSeq, name, ok, lag)
}

// graphOf snapshots a live graph's provenance graph under the read lock.
func graphOf(t *testing.T, reg *core.Registry, name string) *provgraph.Graph {
	t.Helper()
	lg, err := reg.LiveGraph(name)
	if err != nil {
		t.Fatalf("LiveGraph(%s): %v", name, err)
	}
	var g *provgraph.Graph
	if err := lg.Read(func(qp *core.QueryProcessor) error {
		g = qp.Graph().Clone()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFollowerReplicatesAndPromotesAfterPrimaryCrash(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const name = "rep"
	events := chainEvents(600)
	_, _, primary := newPrimary(t)
	ingest(t, primary.URL, name, 1, events)

	freg, mgr := newFollower(t, primary.URL)
	mgr.Start()
	waitApplied(t, mgr, name, 600)

	// Primary crashes (hard close, no drain). The follower promotes.
	primary.CloseClientConnections()
	primary.Close()
	mgr.Promote()

	// The promoted graph equals a sequential replay of the acked prefix —
	// the durability contract kill-the-primary must not break.
	want, err := provgraph.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	if got := graphOf(t, freg, name); !want.StructurallyEqual(got) {
		t.Fatal("promoted follower graph differs from sequential replay of the acked prefix")
	}

	// A promoted node is a primary: it accepts new writes at the next
	// sequence and they are durable in ITS log.
	lg, err := freg.LiveGraph(name)
	if err != nil {
		t.Fatal(err)
	}
	more := chainEvents(700)[600:]
	st, err := lg.Append(601, more)
	if err != nil {
		t.Fatalf("post-promotion append: %v", err)
	}
	if st.Seq != 700 {
		t.Fatalf("post-promotion seq = %d, want 700", st.Seq)
	}
}

func TestFollowerSeedsFromCheckpointAndReseedsAfterCompaction(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const name = "cp"
	events := chainEvents(300)
	preg, _, primary := newPrimary(t)
	ingest(t, primary.URL, name, 1, events[:200])

	// Compact the primary: events 1..200 now live only in the checkpoint,
	// so a fresh follower MUST bootstrap via /checkpoint, not /events.
	plg, err := preg.LiveGraph(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := plg.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	freg, mgr := newFollower(t, primary.URL)
	mgr.Start()
	waitApplied(t, mgr, name, 200)
	if want, _ := provgraph.Replay(events[:200]); !want.StructurallyEqual(graphOf(t, freg, name)) {
		t.Fatal("checkpoint-seeded follower differs from the primary's prefix")
	}

	// Partition the follower, move the primary past its retention, then
	// let it reconnect: the stale position must trigger a clean re-seed.
	mgr.Promote()
	ingest(t, primary.URL, name, 201, events[200:])
	if err := plg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManager(freg, primary.URL,
		WithPollInterval(2*time.Millisecond), WithLogf(t.Logf))
	mgr2.Start()
	t.Cleanup(func() { _ = mgr2.Close() })
	waitApplied(t, mgr2, name, 300)
	if want, _ := provgraph.Replay(events); !want.StructurallyEqual(graphOf(t, freg, name)) {
		t.Fatal("re-seeded follower differs from the primary after compaction")
	}
}

func TestFollowerServesReadsRejectsWritesAndReportsLag(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const name = "serveme"
	events := chainEvents(150)
	_, _, primary := newPrimary(t)
	ingest(t, primary.URL, name, 1, events)

	freg, mgr := newFollower(t, primary.URL)
	fsvc := serve.NewRegistryService(freg)
	fsvc.SetFollower(primary.URL)
	fsvc.SetReplicationLag(mgr.Lag)
	fsrv := httptest.NewServer(fsvc.Handler(""))
	defer fsrv.Close()
	mgr.Start()
	waitApplied(t, mgr, name, 150)

	// Reads work and advertise the replica lag.
	resp, err := http.Get(fsrv.URL + "/v1/snapshots/" + name + "/info")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read returned %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Lipstick-Replica-Lag") == "" {
		t.Fatal("follower read missing X-Lipstick-Replica-Lag header")
	}

	// Writes are rejected with 403 and a pointer at the primary — not a
	// retryable 429/503, so clients fail over instead of hammering.
	wresp, err := http.Post(fsrv.URL+"/v1/ingest/"+name, "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	wbody, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower write returned %d, want 403", wresp.StatusCode)
	}
	var rejection struct {
		Kind    string `json:"kind"`
		Primary string `json:"primary"`
	}
	if err := json.Unmarshal(wbody, &rejection); err != nil || rejection.Kind != "follower" || rejection.Primary != primary.URL {
		t.Fatalf("rejection body %q, want kind=follower primary=%s", wbody, primary.URL)
	}

	// /v1/stats reports the replication section.
	var stats struct {
		Replication *serve.ReplicationStats `json:"replication"`
	}
	sresp, err := http.Get(fsrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err := json.Unmarshal(sbody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replication == nil || !stats.Replication.Follower || stats.Replication.Primary != primary.URL {
		t.Fatalf("stats replication section %+v, want follower of %s", stats.Replication, primary.URL)
	}

	// Promotion flips the serving role: writes are accepted again.
	mgr.Promote()
	fsvc.Promote()
	var buf strings.Builder
	if err := store.EncodeEventBatch(&buf, 151, chainEvents(160)[150:]); err != nil {
		t.Fatal(err)
	}
	presp, err := http.Post(fsrv.URL+"/v1/ingest/"+name, "application/octet-stream", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("post-promotion write returned %d, want 200", presp.StatusCode)
	}
}

func TestReplicaEndpoints(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const name = "wire"
	events := chainEvents(50)
	preg, _, primary := newPrimary(t)
	ingest(t, primary.URL, name, 1, events)
	cli := NewClient(primary.URL)

	st, err := cli.Status(name)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 50 || st.AppliedSeq != 50 || st.CheckpointSeq != 0 {
		t.Fatalf("status %+v, want seq=50 applied=50 ckpt=0", st)
	}

	got, err := cli.Events(name, 11, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("Events(11, 20) returned %d events, want 20", len(got))
	}
	for i := range got {
		if got[i].Kind != events[10+i].Kind {
			t.Fatalf("event %d kind differs from the appended stream", i)
		}
	}

	// No checkpoint yet: typed sentinel.
	if _, _, err := cli.Checkpoint(name); err != ErrNoCheckpoint {
		t.Fatalf("Checkpoint before any checkpoint: %v, want ErrNoCheckpoint", err)
	}

	// After compaction the stale cursor maps to CompactedError and the
	// checkpoint endpoint serves a loadable snapshot.
	plg, err := preg.LiveGraph(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := plg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Events(name, 1, 10); err == nil {
		t.Fatal("Events(1) after compaction succeeded, want CompactedError")
	} else if _, ok := compactedErr(err); !ok {
		t.Fatalf("Events(1) after compaction: %v, want CompactedError", err)
	}
	body, seq, err := cli.Checkpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	if seq != 50 {
		t.Fatalf("checkpoint seq = %d, want 50", seq)
	}
	data, err := io.ReadAll(body)
	if err != nil || len(data) == 0 {
		t.Fatalf("checkpoint body: %d bytes, %v", len(data), err)
	}

	// Unknown stream: 404; bad cursor: 400.
	if _, err := cli.Status("nosuch"); err == nil {
		t.Fatal("status of unknown stream succeeded")
	}
	resp, err := http.Get(primary.URL + "/v1/replica/" + name + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("events?from=0 returned %d, want 400", resp.StatusCode)
	}
}

// compactedErr unwraps a *store.CompactedError.
func compactedErr(err error) (*store.CompactedError, bool) {
	var compacted *store.CompactedError
	if errors.As(err, &compacted) {
		return compacted, true
	}
	return nil, false
}
