package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/serve"
	"lipstick/internal/store"
)

const (
	// serveBatch is the events per POST /v1/ingest/{name}.
	serveBatch = 500
	// restartBatches is how much of the capture the stream reopened in
	// the cold-open phase holds: 163,500 events, so that whatever the
	// capture's length the restart loads the second of two checkpoints
	// (one per 65,536 events) and replays a 32,000-event tail.
	restartBatches = 327
	// serveKeys is the size of the readers' key set; it fits the
	// 4,096-entry query cache, so every miss is a sequence invalidation.
	serveKeys = 512
	// serveHot is how many of the newest keys within the acked prefix a
	// read may draw: a key's subgraph grows with everything derived from
	// it since, so reads further back than a quarter of a second of
	// stream cost many times the median and would make the tail a lottery.
	serveHot = 64
)

// serveWorkload streams the capture through real HTTP into a server
// configured as `lipstick serve -live` while a reader queries the same
// live graph: one open-loop writer connection and one open-loop reader
// connection at fixed rates, every request timed from when it was due.
type serveWorkload struct {
	c       *config
	events  []provgraph.Event
	batches []batch
	bodies  [][]byte // the batches as encoded POST bodies
	// keys are the read targets in the order their nodes enter the
	// stream; keySeq[i] is the event sequence that adds keys[i].
	keys   []provgraph.NodeID
	keySeq []uint64
	finds  []string // find query strings
	// readOps is one window's reads, before shuffling.
	readOps []readOp

	liveDir string
	reg     *core.Registry
	svc     *serve.Service
	handler http.Handler
	srv     *http.Server
	served  chan error
	base    string
	streams int

	// Counted over the untraced windows:
	reads, hits, bytesOut, views int64
	seconds                      float64
	late                         []float64 // how late each request was sent, us
	backlogMax                   int64
	queueHW                      int64
	overloads                    int64
}

// primary: p50_us is the median read. p90_us is taken over every request
// of the mix, reads and ingest posts together: the slow tenth of the mix
// are posts waiting for their durable ack, a flat part of the distribution,
// whereas the reads' own 90th percentile sits where the reads that met a
// post's apply begin and moves by a quarter from run to run (README,
// "Calibration"); it is the detail metric read_p90_us.
func (w *serveWorkload) primary() (string, string) { return "read", "request" }

func (w *serveWorkload) setup(c *config) error {
	w.c = c
	d, events, err := capture(c.scale, c.seed)
	if err != nil {
		return err
	}
	w.events = events
	w.batches = batches(events, serveBatch)
	w.bodies = nil
	for _, b := range w.batches {
		var buf bytes.Buffer
		if err := store.EncodeEventBatch(&buf, b.first, b.events); err != nil {
			return err
		}
		w.bodies = append(w.bodies, buf.Bytes())
	}

	// The key set: serveKeys renderable nodes spaced evenly over the
	// stream, so that a new key comes into reach every few milliseconds.
	tg := newTargets(d.graph())
	addSeq := map[provgraph.NodeID]uint64{}
	for i, ev := range events {
		if ev.Kind == provgraph.EvAddNode {
			addSeq[ev.Node.ID] = uint64(i + 1)
		}
	}
	n := min(serveKeys, len(tg.renderable))
	w.keys, w.keySeq = make([]provgraph.NodeID, n), make([]uint64, n)
	for i := range w.keys {
		w.keys[i] = tg.renderable[i*len(tg.renderable)/n]
		w.keySeq[i] = addSeq[w.keys[i]]
	}
	if !sort.SliceIsSorted(w.keySeq, func(i, j int) bool { return w.keySeq[i] < w.keySeq[j] }) {
		return fmt.Errorf("node ids are not in stream order")
	}
	w.finds = nil
	for _, ft := range tg.finds {
		q := url.Values{"type": ft.req.Types, "op": ft.req.Ops}
		if ft.req.Module != "" {
			q.Set("module", ft.req.Module)
		}
		w.finds = append(w.finds, "find?"+q.Encode())
	}

	w.streams++
	w.liveDir = filepath.Join(c.workDir, fmt.Sprintf("live-%d", w.streams))
	w.reg = newLiveRegistry(w.liveDir)
	w.svc = serve.NewRegistryService(w.reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.handler = w.svc.Handler("")
	w.srv = &http.Server{Handler: w.handler}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()

	// Warm-up: one whole stream as fast as it acks, and a few reads.
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for k, body := range w.bodies {
		if status, err := post(client, w.base+"/v1/ingest/warm", body); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up batch %d: status %d: %v", k, status, err)
		}
	}
	streamTime := float64(len(w.bodies)*serveBatch) / float64(c.scale.ingestRate)
	w.readOps = w.readList(int(streamTime * float64(c.scale.readRate)))
	for i := 0; i < len(w.readOps); i += len(w.readOps)/32 + 1 {
		if _, err := get(client, w.base+"/v1/snapshots/warm/"+w.readPath(w.readOps[i], uint64(len(events)))); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
	}
	return w.dropStream("warm")
}

// newLiveRegistry is the registry `lipstick serve -live dir` builds with
// its default flags: group-commit WAL, default admission queue, default
// publish cadence, read-your-writes views.
func newLiveRegistry(dir string) *core.Registry {
	return core.NewRegistry(nil,
		core.WithLiveOptions(
			core.WithIngestQueueDepth(0),
			core.WithLogOptions(store.WithGroupCommit(store.DefaultGroupCommitDelay, store.DefaultGroupCommitBytes)),
		),
		core.WithLiveDir(dir))
}

func (w *serveWorkload) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = w.srv.Shutdown(ctx)
	cancel()
	<-w.served
	_ = w.reg.Close()
	w.srv = nil
}

// dropStream closes a finished stream and deletes its WAL directory.
func (w *serveWorkload) dropStream(name string) error {
	if err := w.reg.CloseLive(name); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(w.liveDir, name))
}

// readOp is one scheduled read: a find, or a lineage/subgraph of the
// key at a Zipf rank.
type readOp struct {
	kind string
	find string
	rank int
}

// readList builds one window's reads: 52% find, 40% lineage, 8%
// subgraph, keys at the Zipf(1.1) quantiles of the hot keys (see
// queryWorkload.opList for why the composition is fixed). Subgraph reads
// stay below a tenth because half of them take 1 to 2 ms, as long as a
// post waits for its ack: more of them would mix into the slow tenth of
// the requests, which p90_us is taken from.
func (w *serveWorkload) readList(total int) []readOp {
	var ops []readOp
	for k := 0; k < total*52/100; k++ {
		ops = append(ops, readOp{kind: "find", find: w.finds[k%len(w.finds)]})
	}
	for _, rank := range zipfRanks(serveHot, total*40/100) {
		ops = append(ops, readOp{kind: "lineage", rank: rank})
	}
	for _, rank := range zipfRanks(serveHot, total-len(ops)) {
		ops = append(ops, readOp{kind: "subgraph", rank: rank})
	}
	return ops
}

// readPath renders a read against the acked prefix: keys are restricted
// to nodes the prefix contains, rank 0 being the newest of them (readers
// of a live graph ask about what just happened), and before the prefix
// contains any key the read becomes a find.
func (w *serveWorkload) readPath(op readOp, acked uint64) string {
	eligible := sort.Search(len(w.keySeq), func(i int) bool { return w.keySeq[i] > acked })
	if op.kind == "find" || eligible == 0 {
		if op.find == "" {
			return w.finds[op.rank%len(w.finds)]
		}
		return op.find
	}
	return op.kind + "?node=" + strconv.Itoa(int(w.keys[eligible-1-op.rank%eligible]))
}

// kindOfPath is a read's endpoint: its path up to the query string.
func kindOfPath(path string) string {
	kind, _, _ := strings.Cut(path, "?")
	return kind
}

// response is what one GET returned.
type response struct {
	status int
	seq    uint64
	hit    bool
	body   []byte
}

func get(client *http.Client, target string) (response, error) {
	resp, err := client.Get(target)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	seq, _ := strconv.ParseUint(resp.Header.Get("X-Lipstick-Seq"), 10, 64)
	return response{status: resp.StatusCode, seq: seq, hit: resp.Header.Get("X-Lipstick-Cache") == "hit", body: body}, nil
}

// post sends one encoded batch and reads the answer to its end, so the
// connection is reused.
func post(client *http.Client, target string, body []byte) (int, error) {
	resp, err := client.Post(target, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// readSample is one HTTP answer kept to be checked against the
// in-process service at the same sequence.
type readSample struct {
	path string
	seq  uint64
	body []byte
}

// writerOut is what the open-loop writer connection of one window saw.
type writerOut struct {
	acks       []float64 // due time -> durable ack, us
	late       []float64 // due time -> request sent, us
	backlogMax int64     // most batches due but not yet sent
	attempted  int64
	refused    int64 // non-200 answers (429/503 included): counted, never retried
	lastAck    time.Time
	err        error
}

// runWriter posts the capture to a fresh stream, one batch every
// postEvery from t0, on one connection. acked follows the acknowledged
// sequence; finished is set (to the clock, in ns) when the last batch is.
func (w *serveWorkload) runWriter(name string, t0 time.Time, postEvery time.Duration, tr *tracer, acked *atomic.Uint64, finished *atomic.Int64) writerOut {
	var out writerOut
	defer func() { finished.Store(time.Now().UnixNano()) }()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	target := w.base + "/v1/ingest/" + name
	for b, body := range w.bodies {
		due := t0.Add(time.Duration(b) * postEvery)
		sleepUntil(due)
		sent := time.Now()
		out.late = append(out.late, micros(sent.Sub(due)))
		out.backlogMax = max(out.backlogMax, int64(sent.Sub(t0)/postEvery)+1-int64(b))
		var status int
		var err error
		tr.sampled(b, "http POST /v1/ingest", func() { status, err = post(client, target, body) })
		out.attempted++
		if err != nil {
			out.err = err
			return out
		}
		if status != http.StatusOK {
			out.refused++
			continue
		}
		out.lastAck = time.Now()
		out.acks = append(out.acks, micros(out.lastAck.Sub(due)))
		acked.Store(w.batches[b].first + uint64(len(w.batches[b].events)) - 1)
	}
	return out
}

// readerOut is what the open-loop reader connection of one window saw.
type readerOut struct {
	lat       map[string][]float64 // due time -> answer, us, per kind and as "read"
	late      []float64            // due time -> request sent, us
	attempted int64
	refused   int64
	hits      int64 // answers served from the query cache
	bytesOut  int64
	views     map[uint64]struct{} // distinct X-Lipstick-Seq values answered from
	samples   []readSample
	err       error
}

// runReader issues the window's reads, one every readEvery from t0, on
// one connection, until every read due before the writer finished has
// been answered: a read the connection was too busy to send on time is
// sent late and timed from when it was due, never dropped.
func (w *serveWorkload) runReader(name string, i int, t0 time.Time, readEvery time.Duration, tr *tracer, acked *atomic.Uint64, finished *atomic.Int64) readerOut {
	out := readerOut{lat: map[string][]float64{}, views: map[uint64]struct{}{}}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	reads := slices.Clone(w.readOps)
	rng := rand.New(rand.NewSource(w.c.seed*1_000_003 + int64(i+1)))
	rng.Shuffle(len(reads), func(a, b int) { reads[a], reads[b] = reads[b], reads[a] })
	for q := 0; ; q++ {
		due := t0.Add(time.Duration(q) * readEvery)
		if end := finished.Load(); end != 0 && due.UnixNano() > end {
			return out
		}
		sleepUntil(due)
		out.late = append(out.late, micros(time.Since(due)))
		path := w.readPath(reads[q%len(reads)], acked.Load())
		target := w.base + "/v1/snapshots/" + name + "/" + path
		kind := kindOfPath(path)
		var resp response
		var err error
		tr.sampled(q, "http GET "+kind, func() { resp, err = get(client, target) })
		done := time.Now()
		if err != nil {
			out.err = err
			return out
		}
		if resp.status == http.StatusNotFound && acked.Load() == 0 {
			continue // the stream does not exist before its first batch
		}
		out.attempted++
		if resp.status != http.StatusOK {
			out.refused++
			continue
		}
		us := micros(done.Sub(due))
		out.lat[kind] = append(out.lat[kind], us)
		out.lat["read"] = append(out.lat["read"], us)
		if resp.hit {
			out.hits++
		}
		out.bytesOut += int64(len(resp.body))
		out.views[resp.seq] = struct{}{}
		if q%sampleEvery == 0 {
			out.samples = append(out.samples, readSample{path: path, seq: resp.seq, body: resp.body})
		}
	}
}

func (w *serveWorkload) window(i int, tr *tracer, r *result) (window, error) {
	w.streams++
	name := fmt.Sprintf("stream-%d", w.streams)
	postEvery := time.Duration(float64(serveBatch) / float64(w.c.scale.ingestRate) * float64(time.Second))
	readEvery := time.Duration(float64(time.Second) / float64(w.c.scale.readRate))
	overloadsBefore := core.ReadCounters().IngestOverloads

	var acked atomic.Uint64
	var finished atomic.Int64
	var wr writerOut
	var rd readerOut
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wr = w.runWriter(name, t0, postEvery, tr, &acked, &finished)
	}()
	go func() {
		defer wg.Done()
		rd = w.runReader(name, i, t0, readEvery, tr, &acked, &finished)
	}()
	wg.Wait()
	ws := window{lat: rd.lat}
	if wr.err != nil {
		return ws, wr.err
	}
	if rd.err != nil {
		return ws, rd.err
	}
	ws.busy = wr.lastAck.Sub(t0)
	ws.lat["ack"] = wr.acks
	ws.lat["request"] = append(slices.Clone(rd.lat["read"]), wr.acks...)
	ws.ops = float64(len(wr.acks) + len(rd.lat["read"]))
	ws.unitCostUS = mean(rd.lat["read"])
	r.attempted += wr.attempted + rd.attempted
	for k := int64(0); k < wr.refused+rd.refused; k++ {
		r.fail("window %d: %d ingest batches and %d reads were refused or failed", i, wr.refused, rd.refused)
	}

	lg, err := w.reg.LiveGraph(name)
	if err != nil {
		return ws, err
	}
	r.check(lg.Seq() == uint64(len(w.events)), "window %d: stream holds %d events, sent %d", i, lg.Seq(), len(w.events))
	if tr == nil {
		w.reads += int64(len(rd.lat["read"]))
		w.hits += rd.hits
		w.bytesOut += rd.bytesOut
		w.views += int64(len(rd.views))
		w.seconds += ws.busy.Seconds()
		w.late = append(append(w.late, wr.late...), rd.late...)
		w.backlogMax = max(w.backlogMax, wr.backlogMax)
		w.queueHW = max(w.queueHW, lg.PipelineStats().QueueHighWater)
		w.overloads += core.ReadCounters().IngestOverloads - overloadsBefore
	}
	if err := w.verify(name, rd.samples, r); err != nil {
		return ws, err
	}
	return ws, w.dropStream(name)
}

// verify checks sampled HTTP answers against the in-process service's
// answer at the same sequence: a reference service ingests the same
// events in memory up to each sample's X-Lipstick-Seq and answers the
// same request through its handler, without a network.
func (w *serveWorkload) verify(name string, samples []readSample, r *result) error {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].seq < samples[j].seq })
	reg := core.NewRegistry(nil)
	defer reg.Close()
	handler := serve.NewRegistryService(reg).Handler("")
	lg, err := reg.OpenLive(name)
	if err != nil {
		return err
	}
	applied := uint64(0)
	for _, s := range samples {
		if s.seq > applied {
			if _, err := lg.Append(applied+1, w.events[applied:s.seq]); err != nil {
				return err
			}
			applied = s.seq
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/snapshots/"+name+"/"+s.path, nil))
		r.check(rec.Code == http.StatusOK && rec.Header().Get("X-Lipstick-Seq") == strconv.FormatUint(s.seq, 10) &&
			bytes.Equal(rec.Body.Bytes(), s.body),
			"%s at seq %d: the HTTP answer differs from the in-process service's", s.path, s.seq)
	}
	return nil
}

func (w *serveWorkload) finish(c *config, plain []window, tr *tracer, r *result) error {
	for _, kind := range []string{"find", "lineage", "subgraph"} {
		r.detail[kind+"_p50_us"] = kindPct(plain, kind, 50)
	}
	r.detail["read_p90_us"] = kindPct(plain, "read", 90)
	r.detail["query_p99_us"] = kindPct(plain, "read", 99)
	r.detail["ingest_ack_p50_ms"] = kindPct(plain, "ack", 50) / 1e3

	// The stored form: one finished stream, closed cleanly, reopened by a
	// fresh registry as a restarted server would.
	client := &http.Client{}
	defer client.CloseIdleConnections()
	final := w.bodies[:min(restartBatches, len(w.bodies))]
	finalEvents := min(len(final)*serveBatch, len(w.events))
	for k, body := range final {
		if status, err := post(client, w.base+"/v1/ingest/final", body); err != nil || status != http.StatusOK {
			return fmt.Errorf("final stream batch %d: status %d: %v", k, status, err)
		}
	}
	if tr != nil {
		if err := w.probes(tr, r, client, plain); err != nil {
			return err
		}
	}
	finalGraph, err := w.reg.LiveGraph("final")
	if err != nil {
		return err
	}
	finalNodes := finalGraph.Info().Nodes
	if err := w.reg.CloseLive("final"); err != nil {
		return err
	}
	size, err := dirBytes(filepath.Join(w.liveDir, "final"))
	if err != nil {
		return err
	}
	r.e2e["stored_bytes_per_node"] = float64(size) / float64(finalNodes)
	var opens []float64
	for i := 0; i < recoverReps; i++ {
		dir := filepath.Join(c.workDir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(filepath.Join(w.liveDir, "final"), filepath.Join(dir, "final")); err != nil {
			return err
		}
		t0 := time.Now()
		reg := newLiveRegistry(dir)
		names, err := reg.RestoreLiveDir()
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		serve.NewRegistryService(reg).Handler("").ServeHTTP(rec,
			httptest.NewRequest(http.MethodGet, "/v1/snapshots/final/"+w.finds[0], nil))
		opens = append(opens, millis(time.Since(t0)))
		r.check(len(names) == 1 && rec.Code == http.StatusOK &&
			rec.Header().Get("X-Lipstick-Seq") == strconv.Itoa(finalEvents),
			"restart %d: restored %v, status %d, seq %s (want %d)", i, names, rec.Code, rec.Header().Get("X-Lipstick-Seq"), finalEvents)
		if err := reg.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	r.detail["restart_first_query_ms"] = median(opens)
	return nil
}

// probes runs the traced run's ladders over the fully ingested "final"
// stream and reports the counters kept during the windows.
func (w *serveWorkload) probes(tr *tracer, r *result, client *http.Client, plain []window) error {
	r.layer["serve.cache_hit_ratio"] = float64(w.hits) / float64(max(w.reads, 1))
	r.layer["serve.views_per_s"] = float64(w.views) / w.seconds
	r.layer["serve.bytes_out_per_query"] = float64(w.bytesOut) / float64(max(w.reads, 1))
	r.layer["core.queue_high_water"] = float64(w.queueHW)
	r.layer["core.overloads"] = float64(w.overloads)
	r.layer["gen.late_p99_ms"] = percentile(sorted(w.late), 99) / 1e3
	r.layer["gen.backlog_max"] = float64(w.backlogMax)
	r.layer["ingest.ack_p99_ms"] = kindPct(plain, "ack", 99) / 1e3

	lg, err := w.reg.LiveGraph("final")
	if err != nil {
		return err
	}
	handler := w.handler
	rng := rand.New(rand.NewSource(w.c.seed))
	reachable := sort.Search(len(w.keySeq), func(i int) bool { return w.keySeq[i] > lg.Seq() })
	var httpSelf, handlerSelf []float64
	for i := 0; i < 200; i++ {
		node := w.keys[rng.Intn(reachable)]
		// A distinct ignored parameter per rung makes each a cache miss.
		path := fmt.Sprintf("/v1/snapshots/final/lineage?node=%d&probe=%d", node, i)
		d := tr.ladder(
			rung{"http GET lineage", func() { _, _ = get(client, w.base+path+"a") }},
			rung{"serve.Service.Handler lineage", func() {
				handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path+"b", nil))
			}},
			rung{"core.LiveGraph.ReadView+Lineage+Expr", func() {
				qp := lg.ReadView().QP
				_ = qp.Lineage(node)
				_ = qp.Expr(node).String()
			}},
		)
		httpSelf = append(httpSelf, d[0]-d[1])
		handlerSelf = append(handlerSelf, d[1]-d[2])
	}
	r.layer["serve.http_self_us"] = median(httpSelf)
	r.layer["serve.handler_self_us"] = median(handlerSelf)

	// The ingest endpoint's own cost: the same batches by HTTP and by
	// LiveGraph.Append into a second durable stream.
	direct, err := core.OpenLiveGraph("probe-direct", filepath.Join(w.c.workDir, "probe-direct"), durableOptions(0)...)
	if err != nil {
		return err
	}
	defer direct.Close()
	var ingestSelf []float64
	for k, b := range w.batches {
		var status int
		var perr, aerr error
		d := tr.ladder(
			rung{"http POST /v1/ingest", func() { status, perr = post(client, w.base+"/v1/ingest/probe-http", w.bodies[k]) }},
			rung{"core.LiveGraph.Append", func() { _, aerr = direct.Append(b.first, b.events) }},
		)
		if perr != nil || aerr != nil || status != http.StatusOK {
			return fmt.Errorf("ingest probe batch %d: status %d: %v %v", k, status, perr, aerr)
		}
		ingestSelf = append(ingestSelf, d[0]-d[1])
	}
	r.layer["serve.ingest_self_us"] = median(ingestSelf)

	// ReadView beside a writer, and the cost of publishing a view of one
	// default publish interval's worth of new events.
	mem := core.NewLiveGraph("probe-mem", core.WithPublishEvery(0), core.WithIngestQueueDepth(-1))
	var publish []float64
	for at := 0; at < len(w.events); at += core.DefaultPublishEvery {
		end := min(at+core.DefaultPublishEvery, len(w.events))
		if _, err := mem.Append(uint64(at+1), w.events[at:end]); err != nil {
			return err
		}
		d := tr.root("core.LiveGraph.ReadView/publish", func() { _ = mem.ReadView() })
		publish = append(publish, micros(d))
	}
	r.layer["provgraph.publish_us"] = median(publish)

	// ReadView beside a writer appending a fresh durable stream.
	beside, err := w.reg.OpenLive("probe-readview")
	if err != nil {
		return err
	}
	var views []float64
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		for _, b := range w.batches {
			select {
			case <-stop:
				writerErr <- nil
				return
			default:
			}
			if _, err := beside.Append(b.first, b.events); err != nil {
				writerErr <- err
				return
			}
		}
		writerErr <- nil
	}()
	for i := 0; i < 2000; i++ {
		d := tr.root("core.LiveGraph.ReadView", func() { _ = beside.ReadView() })
		views = append(views, micros(d))
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	if err := <-writerErr; err != nil {
		return err
	}
	r.layer["core.readview_us"] = mean(views)
	for _, name := range []string{"probe-http", "probe-readview"} {
		if err := w.dropStream(name); err != nil {
			return err
		}
	}
	return nil
}
