package failover

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/faultinject"
	"lipstick/internal/provgraph"
	"lipstick/internal/replica"
	"lipstick/internal/serve"
	"lipstick/internal/shard"
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

// newNode boots one durable lipstick node behind the real HTTP handler.
func newNode(t *testing.T) (*core.Registry, *serve.Service, *httptest.Server) {
	t.Helper()
	reg := core.NewRegistry(nil, core.WithLiveDir(t.TempDir()))
	svc := serve.NewRegistryService(reg)
	srv := httptest.NewServer(svc.Handler(""))
	t.Cleanup(func() { srv.Close(); reg.Close() })
	return reg, svc, srv
}

// newFollowerNode boots a durable node tailing primaryURL, wired the way
// `lipstick serve -follow` wires it: replication lag exported, follower
// writes rejected, and the promote hook stopping the tail.
func newFollowerNode(t *testing.T, primaryURL string) (*core.Registry, *serve.Service, *httptest.Server, *replica.Manager) {
	t.Helper()
	reg, svc, srv := newNode(t)
	mgr := replica.NewManager(reg, primaryURL,
		replica.WithPollInterval(2*time.Millisecond),
		replica.WithLogf(t.Logf),
		replica.WithGenerationFunc(svc.Generation))
	mgr.Start()
	t.Cleanup(func() { _ = mgr.Close() })
	svc.SetFollower(primaryURL)
	svc.SetReplicationLag(mgr.Lag)
	svc.SetPromoteHook(func() error { mgr.Promote(); return nil })
	return reg, svc, srv, mgr
}

// nameOwnedBy finds a graph name the ring assigns to node.
func nameOwnedBy(t *testing.T, p *shard.Proxy, node string) string {
	t.Helper()
	for _, cand := range []string{"wal", "cars", "deal", "prov", "tok", "exec", "g7", "g8"} {
		if p.Ring().Node(cand) == node {
			return cand
		}
	}
	t.Fatalf("no candidate name hashes to %s", node)
	return ""
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
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

// TestKillThePrimaryFailsOverWithZeroAckedLoss is the end-to-end chaos
// acceptance: a 2-shard + follower topology loses its primary mid-stream;
// the detector declares it down, the coordinator promotes the follower
// under a bumped generation, the streaming client rides through without
// losing or duplicating an acked event, and the rejoining zombie is
// fenced into a follower.
func TestKillThePrimaryFailsOverWithZeroAckedLoss(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, svcA, srvA := newNode(t)
	_, _, srvB := newNode(t)
	regF, svcF, srvF, fmgr := newFollowerNode(t, srvA.URL)

	proxy, err := shard.NewProxy([]string{srvA.URL, srvB.URL}, shard.WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	coord := New(proxy, map[string][]string{srvA.URL: {srvF.URL}}, WithLogf(t.Logf))
	det := shard.NewDetector([]string{srvA.URL, srvB.URL},
		shard.WithProbeInterval(5*time.Millisecond),
		shard.WithThresholds(2, 4, 2))
	det.OnTransition = coord.HandleTransition
	det.Start()
	t.Cleanup(func() { det.Close(); coord.Close() })
	proxySrv := httptest.NewServer(proxy.Handler())
	t.Cleanup(proxySrv.Close)

	name := nameOwnedBy(t, proxy, srvA.URL)
	events := chainEvents(600)
	c := serve.NewIngestClient(proxySrv.URL, name, 50)
	c.RetryBase = 5 * time.Millisecond

	// Phase 1: stream half through the proxy into the healthy primary and
	// let the follower replicate a prefix of it.
	for _, ev := range events[:300] {
		c.Record(ev)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("pre-kill flush: %v", err)
	}
	waitFor(t, "follower to replicate a prefix", func() bool {
		lag, ok := fmgr.Lag(name)
		return ok && lag.AppliedSeq >= 100
	})

	// Phase 2: kill the primary mid-stream and keep writing. The client
	// sees 503 + Retry-After during the failover window and resumes —
	// rewinding into its retained-event window if the promoted follower
	// trails the acked position.
	addrA := srvA.Listener.Addr().String()
	killAt := time.Now()
	srvA.CloseClientConnections()
	srvA.Close()
	var writableAt time.Time
	for next := 300; next < 600; next += 50 {
		for _, ev := range events[next : next+50] {
			c.Record(ev)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("post-kill flush at %d: %v", next, err)
		}
		if writableAt.IsZero() {
			writableAt = time.Now()
		}
	}
	if got := c.Sent(); got != 600 {
		t.Fatalf("Sent = %d, want 600", got)
	}

	// The coordinator promoted the follower automatically.
	waitFor(t, "automatic promotion", func() bool { return coord.LastFailover() != nil })
	rec := coord.LastFailover()
	if rec.Node != srvA.URL || rec.Target != srvF.URL {
		t.Fatalf("failover %s -> %s, want %s -> %s", rec.Node, rec.Target, srvA.URL, srvF.URL)
	}
	if rec.Generation != 2 {
		t.Fatalf("promotion generation = %d, want 2", rec.Generation)
	}
	if got := svcF.Generation(); got != 2 {
		t.Fatalf("promoted node generation = %d, want 2", got)
	}
	if _, follower := svcF.FollowerPrimary(); follower {
		t.Fatal("promoted node still reports follower mode")
	}

	// Zero acked loss, exactly once: the promoted graph equals a replay of
	// every acked event — a lost event breaks equality, a duplicated one
	// breaks the apply.
	lgF, err := regF.LiveGraph(name)
	if err != nil {
		t.Fatal(err)
	}
	if got := lgF.Seq(); got != 600 {
		t.Fatalf("promoted stream at seq %d, want 600", got)
	}
	want, err := provgraph.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	if !want.StructurallyEqual(graphOf(t, regF, name)) {
		t.Fatal("promoted graph differs from the acked prefix")
	}

	// Phase 3: the zombie rejoins on its old address. The detector walks
	// it down -> recovering, and the coordinator fences it: demoted to a
	// follower of the node that replaced it, at the promoted generation.
	l, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatalf("rebinding the dead primary's address: %v", err)
	}
	srvA2 := &httptest.Server{Listener: l, Config: &http.Server{Handler: svcA.Handler("")}}
	srvA2.Start()
	t.Cleanup(srvA2.Close)
	waitFor(t, "zombie to be fenced into a follower", func() bool {
		p, follower := svcA.FollowerPrimary()
		return follower && p == srvF.URL && svcA.Generation() == 2
	})

	// A zombie's stale-generation append is rejected with the structured
	// fencing error...
	req, err := http.NewRequest("POST", srvA2.URL+"/v1/ingest/"+name, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.GenerationHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read above
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), `"fenced"`) {
		t.Fatalf("stale-generation write = %d %s, want 409 fenced", resp.StatusCode, body)
	}
	// ...and an unstamped direct write bounces off follower mode.
	if _, err := serve.Ingest(srvA2.URL, name, 601, events[:1]); err == nil {
		t.Fatal("the fenced zombie accepted a direct write")
	}

	t.Logf("failover timing: detect->promote=%v kill->first-successful-write=%v",
		rec.DetectToPromote, writableAt.Sub(killAt))
}

// TestPartitionFailsOverAndFencesOnHeal drives the same machinery with a
// one-direction network partition instead of a process death: the proxy
// (and its detector) cannot reach the primary, which stays alive — the
// canonical split-brain setup the generation fence exists for.
func TestPartitionFailsOverAndFencesOnHeal(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	t.Cleanup(faultinject.Reset)
	_, svcA, srvA := newNode(t)
	_, svcF, srvF, _ := newFollowerNode(t, srvA.URL)

	proxy, err := shard.NewProxy([]string{srvA.URL}, shard.WithRetry(0, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	coord := New(proxy, map[string][]string{srvA.URL: {srvF.URL}}, WithLogf(t.Logf))
	det := shard.NewDetector([]string{srvA.URL},
		shard.WithProbeInterval(5*time.Millisecond),
		shard.WithThresholds(2, 4, 2))
	det.OnTransition = coord.HandleTransition
	det.Start()
	t.Cleanup(func() { det.Close(); coord.Close() })
	proxySrv := httptest.NewServer(proxy.Handler())
	t.Cleanup(proxySrv.Close)

	name := nameOwnedBy(t, proxy, srvA.URL)
	events := chainEvents(40)
	c := serve.NewIngestClient(proxySrv.URL, name, 20)
	c.RetryBase = 5 * time.Millisecond
	for _, ev := range events[:20] {
		c.Record(ev)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Partition proxy->primary only: probes and forwards drop, the
	// primary itself stays up.
	faultinject.Arm("proxy.transport", faultinject.Fault{
		Err: errors.New("partitioned"), Match: srvA.URL,
	})
	waitFor(t, "partition-driven promotion", func() bool { return coord.LastFailover() != nil })
	if got := svcF.Generation(); got != 2 {
		t.Fatalf("promoted generation = %d, want 2", got)
	}

	// Writes keep flowing through the promoted follower.
	for _, ev := range events[20:] {
		c.Record(ev)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("post-partition flush: %v", err)
	}
	if got := c.Sent(); got != 40 {
		t.Fatalf("Sent = %d, want 40", got)
	}

	// Heal the partition: the detector walks the live-but-replaced
	// primary through recovering, and the coordinator fences it.
	faultinject.Disarm("proxy.transport")
	waitFor(t, "healed primary to be fenced", func() bool {
		p, follower := svcA.FollowerPrimary()
		return follower && p == srvF.URL && svcA.Generation() == 2
	})
}
