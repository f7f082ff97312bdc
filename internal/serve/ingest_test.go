package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/testutil"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// captureRun streams a dealership run into an event log and returns the
// batch-built graph plus the event stream.
func captureRun(t testing.TB) (*provgraph.Graph, []provgraph.Event) {
	t.Helper()
	log := provgraph.NewEventLog()
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 80, NumExec: 2, Seed: 7, Gran: workflow.Fine,
		EventSink: log.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run.Runner.Graph(), log.Drain()
}

// readLive runs fn on the named live graph's newest published view.
func readLive(svc *Service, name string, fn func(*core.QueryProcessor) error) error {
	lg, err := svc.Registry().LiveGraph(name)
	if err != nil {
		return err
	}
	return lg.Read(fn)
}

func postBatch(t *testing.T, srv *httptest.Server, name string, firstSeq uint64, events []provgraph.Event) *IngestResult {
	t.Helper()
	var body bytes.Buffer
	if err := store.EncodeEventBatch(&body, firstSeq, events); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest/"+name, "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %s", resp.Status)
	}
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res
}

func fetchJSON(t *testing.T, srv *httptest.Server, path string, into any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHTTPIngestLiveQueries(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	batch, events := captureRun(t)
	svc := NewService(nil)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()

	mid := len(events) / 2
	res := postBatch(t, srv, "run1", 1, events[:mid])
	if res.Applied != mid || res.Seq != uint64(mid) {
		t.Fatalf("first batch: %+v", res)
	}

	// Mid-ingest, every read endpoint answers against the live prefix.
	var find FindResult
	if code := fetchJSON(t, srv, "/v1/snapshots/run1/find?type=m", &find); code != 200 {
		t.Fatalf("find returned %d", code)
	}
	if find.Count == 0 {
		t.Fatal("live find returned no invocations mid-ingest")
	}
	var lin LineageResult
	if code := fetchJSON(t, srv, "/v1/snapshots/run1/lineage?node=0", &lin); code != 200 {
		t.Fatalf("lineage returned %d", code)
	}
	var info InfoResult
	if code := fetchJSON(t, srv, "/v1/snapshots/run1/info", &info); code != 200 {
		t.Fatalf("info returned %d", code)
	}
	if info.Nodes == 0 {
		t.Fatal("live info reports an empty graph")
	}
	// The flat endpoints resolve the lone live graph as the default.
	if code := fetchJSON(t, srv, "/v1/info", &info); code != 200 {
		t.Fatalf("flat info against single live graph returned %d", code)
	}

	// Listing shows the live graph.
	var snaps SnapshotsResult
	if code := fetchJSON(t, srv, "/v1/snapshots", &snaps); code != 200 || snaps.Count != 1 {
		t.Fatalf("snapshots: code %d, %+v", code, snaps)
	}
	if snaps.Snapshots[0].Kind != "live" || snaps.Snapshots[0].Events != uint64(mid) {
		t.Fatalf("live listing: %+v", snaps.Snapshots[0])
	}

	// Finish the stream, retry the final batch (idempotent), and verify
	// the result matches the in-process batch build.
	res = postBatch(t, srv, "run1", uint64(mid)+1, events[mid:])
	if res.Seq != uint64(len(events)) {
		t.Fatalf("final seq %d, want %d", res.Seq, len(events))
	}
	res = postBatch(t, srv, "run1", uint64(mid)+1, events[mid:])
	if res.Applied != 0 || res.Duplicates != len(events)-mid {
		t.Fatalf("retry was not idempotent: %+v", res)
	}
	if err := readLive(svc, "run1", func(qp *core.QueryProcessor) error {
		if !batch.StructurallyEqual(qp.Graph()) {
			t.Fatal("ingested graph differs from batch build")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A gap is a structured 409.
	var gapBody bytes.Buffer
	if err := store.EncodeEventBatch(&gapBody, uint64(len(events))+10, events[:1]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest/run1", "application/octet-stream", &gapBody)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("gap returned %d, want 409", resp.StatusCode)
	}
	var gap struct {
		Kind     string `json:"kind"`
		Expected uint64 `json:"expected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gap); err != nil {
		t.Fatal(err)
	}
	if gap.Kind != "ingest-gap" || gap.Expected != uint64(len(events))+1 {
		t.Fatalf("gap body: %+v", gap)
	}

	// Garbage bodies are 400s.
	resp, err = http.Post(srv.URL+"/v1/ingest/run1", "application/octet-stream",
		bytes.NewReader([]byte("not an event batch")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body returned %d, want 400", resp.StatusCode)
	}
}

func TestHTTPIngestClientStreamsWhileServing(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// End-to-end: a workflow run streams through IngestClient into the
	// server while a reader polls live queries — the full capture ->
	// encode -> HTTP -> live-graph -> query pipeline, race-tested in CI.
	svc := NewService(nil)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()

	client := NewIngestClient(srv.URL, "stream", 64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var find FindResult
			fetchJSON(t, srv, "/v1/snapshots/stream/find?type=m", &find)
		}
	}()

	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 80, NumExec: 2, Seed: 7, Gran: workflow.Fine,
		EventSink: client.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	close(done)
	wg.Wait()

	var status IngestResult
	if code := fetchJSON(t, srv, "/v1/ingest/stream", &status); code != 200 {
		t.Fatalf("ingest status returned %d", code)
	}
	if status.Seq != client.Sent() {
		t.Fatalf("server seq %d != client sent %d", status.Seq, client.Sent())
	}
	if err := readLive(svc, "stream", func(qp *core.QueryProcessor) error {
		if !run.Runner.Graph().StructurallyEqual(qp.Graph()) {
			t.Fatal("streamed graph differs from the run's graph")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPStats(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := saveSnapshot(t)
	svc := NewService(nil)
	srv := httptest.NewServer(svc.Handler(path))
	defer srv.Close()

	// Generate some traffic: queries (cache hits), a session, an ingest.
	if code := fetchJSON(t, srv, "/v1/info", nil); code != 200 {
		t.Fatalf("info: %d", code)
	}
	if code := fetchJSON(t, srv, "/v1/info", nil); code != 200 {
		t.Fatalf("info: %d", code)
	}
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"snapshot":%q}`, core.SnapshotName(path)))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, events := captureRun(t)
	postBatch(t, srv, "live1", 1, events[:100])

	var stats StatsResult
	if code := fetchJSON(t, srv, "/v1/stats", &stats); code != 200 {
		t.Fatalf("stats returned %d", code)
	}
	if stats.Snapshots.Static != 1 || stats.Snapshots.Live != 1 {
		t.Fatalf("snapshot gauges: %+v", stats.Snapshots)
	}
	if len(stats.LiveGraphs) != 1 || stats.LiveGraphs[0].Events != 100 {
		t.Fatalf("live graphs: %+v", stats.LiveGraphs)
	}
	if stats.Sessions.Live != 1 {
		t.Fatalf("session gauge: %+v", stats.Sessions)
	}
	// Counters are process-wide (other tests contribute); just require
	// the traffic above to be visible.
	if stats.SnapshotCache.Hits < 1 || stats.SnapshotCache.Misses < 1 {
		t.Fatalf("cache counters: %+v", stats.SnapshotCache)
	}
	if stats.Sessions.Created < 1 || stats.Ingest.Batches < 1 || stats.Ingest.Events < 100 {
		t.Fatalf("counters: %+v", stats)
	}
	// The ingest above held one admission slot, so the queue high-water
	// gauge must register it even on this in-memory live graph.
	if stats.Ingest.QueueHighWater < 1 {
		t.Fatalf("queue high-water: %+v", stats.Ingest)
	}
}

func TestHTTPStatsIngestPipeline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// A durable, group-committed live graph surfaces its pipeline
	// counters — group commits, batches per commit, queue depth
	// high-water, and shed batches — through GET /v1/stats.
	reg := core.NewRegistry(nil,
		core.WithLiveDir(t.TempDir()),
		core.WithLiveOptions(
			core.WithLogOptions(store.WithFsync(false)),
			core.WithIngestQueueDepth(4),
		))
	defer reg.Close()
	svc := NewRegistryService(reg)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()

	_, events := captureRun(t)
	for i := 0; i < 400; i += 100 {
		postBatch(t, srv, "pipe", uint64(i)+1, events[i:i+100])
	}
	// Force a shed batch: saturate the admission gate directly.
	lg, err := reg.LiveGraph("pipe")
	if err != nil {
		t.Fatal(err)
	}
	var held []*core.PendingAppend
	overloaded := false
	for i := 0; i < 5; i++ {
		p := lg.AppendAsync(401, events[400:420])
		held = append(held, p)
	}
	var body bytes.Buffer
	if err := store.EncodeEventBatch(&body, 401, events[400:420]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest/pipe", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		overloaded = true
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatal("429 without Retry-After")
		}
		var shed struct {
			Kind  string `json:"kind"`
			Name  string `json:"name"`
			Depth int    `json:"depth"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
			t.Fatal(err)
		}
		if shed.Kind != "overloaded" || shed.Name != "pipe" || shed.Depth != 4 {
			t.Fatalf("429 body: %+v", shed)
		}
	}
	resp.Body.Close()
	for _, p := range held {
		p.Wait() // drain; duplicates resolve without error
	}
	if !overloaded {
		t.Fatal("saturated queue did not shed the HTTP batch")
	}

	var stats StatsResult
	if code := fetchJSON(t, srv, "/v1/stats", &stats); code != 200 {
		t.Fatalf("stats returned %d", code)
	}
	if stats.Ingest.GroupCommits < 1 || stats.Ingest.GroupBatches < stats.Ingest.GroupCommits {
		t.Fatalf("group counters: %+v", stats.Ingest)
	}
	if stats.Ingest.QueueHighWater < 4 || stats.Ingest.Overloads < 1 {
		t.Fatalf("admission counters: %+v", stats.Ingest)
	}
}

func TestHTTPIngestClientRetriesOverload(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// Every batch's first attempt is shed with a synthetic 429; the
	// client's backoff retry must complete the stream with zero lost or
	// duplicated events (asserted by replay equality against the batch
	// build).
	batch, events := captureRun(t)
	svc := NewService(nil)
	inner := svc.Handler("")
	var mu sync.Mutex
	attempts := make(map[string]int)
	shed := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/ingest/") {
			mu.Lock()
			attempts[r.URL.Path]++
			first := attempts[r.URL.Path]%2 == 1
			if first {
				shed++
			}
			mu.Unlock()
			if first {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":"synthetic overload","kind":"overloaded"}`)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	client := NewIngestClient(srv.URL, "retry", 64)
	client.RetryBase = time.Millisecond
	for _, ev := range events {
		client.Record(ev)
	}
	if err := client.Flush(); err != nil {
		t.Fatalf("flush with retries: %v", err)
	}
	mu.Lock()
	if shed == 0 {
		t.Fatal("no batch was shed; the retry path was not exercised")
	}
	mu.Unlock()
	if client.Sent() != uint64(len(events)) {
		t.Fatalf("client acked %d of %d events", client.Sent(), len(events))
	}
	if err := readLive(svc, "retry", func(qp *core.QueryProcessor) error {
		if !batch.StructurallyEqual(qp.Graph()) {
			t.Fatal("retried stream differs from batch build (lost or duplicated events)")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Non-retryable statuses stay sticky immediately.
	deadSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer deadSrv.Close()
	c2 := NewIngestClient(deadSrv.URL, "dead", 4)
	c2.RetryBase = time.Millisecond
	for _, ev := range events[:8] {
		c2.Record(ev)
	}
	if err := c2.Flush(); err == nil {
		t.Fatal("400 did not turn the client sticky")
	}
}

func TestHTTPSessionFork(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path := saveSnapshot(t)
	svc := NewService(nil)
	srv := httptest.NewServer(svc.Handler(path))
	defer srv.Close()
	name := core.SnapshotName(path)

	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"snapshot":%q}`, name))))
	if err != nil {
		t.Fatal(err)
	}
	var sess SessionResult
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Mutate the parent, fork, and verify the fork carries the deltas.
	resp, err = http.Post(srv.URL+"/v1/sessions/"+sess.ID+"/delete", "application/json",
		bytes.NewReader([]byte(`{"nodes":[0]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var parentInfo SessionResult
	if code := fetchJSON(t, srv, "/v1/sessions/"+sess.ID, &parentInfo); code != 200 {
		t.Fatalf("session info: %d", code)
	}

	resp, err = http.Post(srv.URL+"/v1/sessions/"+sess.ID+"/fork", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fork SessionResult
	if err := json.NewDecoder(resp.Body).Decode(&fork); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fork.ID == sess.ID {
		t.Fatal("fork reused the parent id")
	}
	if fork.Nodes != parentInfo.Nodes || fork.Changes != parentInfo.Changes {
		t.Fatalf("fork state %+v differs from parent %+v", fork, parentInfo)
	}
	// Mutating the fork leaves the parent untouched.
	resp, err = http.Post(srv.URL+"/v1/sessions/"+fork.ID+"/delete", "application/json",
		bytes.NewReader([]byte(`{"nodes":[1]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var after SessionResult
	fetchJSON(t, srv, "/v1/sessions/"+sess.ID, &after)
	if after.Nodes != parentInfo.Nodes {
		t.Fatal("fork mutation leaked into the parent")
	}
	// Forking an unknown session is a structured 404.
	resp, err = http.Post(srv.URL+"/v1/sessions/sess-ghost/fork", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fork of unknown session returned %d", resp.StatusCode)
	}
}

func TestHTTPIngestGuards(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	svc := NewService(nil)
	srv := httptest.NewServer(svc.Handler(""))
	defer srv.Close()
	_, events := captureRun(t)

	// A mid-stream first batch must not claim the name: 409, and the
	// graph is not created.
	var body bytes.Buffer
	if err := store.EncodeEventBatch(&body, 50, events[:10]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest/ghost", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mid-stream first batch returned %d, want 409", resp.StatusCode)
	}
	if code := fetchJSON(t, srv, "/v1/ingest/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("rejected first batch still created the graph (status %d)", code)
	}

	// A second sender reusing a stream name must get a sticky error, not
	// a silent duplicate-ack.
	postBatch(t, srv, "dup", 1, events[:40])
	reuse := NewIngestClient(srv.URL, "dup", 8)
	for _, ev := range events[:16] {
		reuse.Record(ev)
	}
	if err := reuse.Flush(); err == nil {
		t.Fatal("name reuse was silently acknowledged")
	} else if !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("name reuse error = %v", err)
	}
}

// TestHTTPIngestRejectsUnknownNodeType: an add-node event whose type is
// past the enum is refused like any event the graph cannot apply (a 400
// with a JSON error), and it never reaches the graph, so the checkpoint
// that follows succeeds.
func TestHTTPIngestRejectsUnknownNodeType(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := core.NewRegistry(nil,
		core.WithLiveDir(t.TempDir()),
		core.WithLiveOptions(core.WithLogOptions(store.WithFsync(false))))
	defer reg.Close()
	srv := httptest.NewServer(NewRegistryService(reg).Handler(""))
	defer srv.Close()

	_, events := captureRun(t)
	k := 100
	for events[k].Kind != provgraph.EvAddNode {
		k++
	}
	postBatch(t, srv, "bad", 1, events[:k])
	bad := events[k]
	bad.Node.Type = provgraph.Type(48)
	var body bytes.Buffer
	if err := store.EncodeEventBatch(&body, uint64(k)+1, []provgraph.Event{bad}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest/bad", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	var refused struct {
		Error string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&refused)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.Contains(refused.Error, "unknown class, type or op") {
		t.Fatalf("type-48 node: status %d, body %+v (%v); want 400 naming the bad type", resp.StatusCode, refused, derr)
	}

	resp, err = http.Post(srv.URL+"/v1/ingest/bad/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt CheckpointResult
	derr = json.NewDecoder(resp.Body).Decode(&ckpt)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || derr != nil || ckpt.Seq != uint64(k) {
		t.Fatalf("checkpoint after the refused event: status %d, %+v (%v); want 200 at seq %d", resp.StatusCode, ckpt, derr, k)
	}
}
