// Package scaleout is the horizontal-scaling benchmark behind
// BENCH_scaleout.json: it boots real lipstick nodes in-process (each a
// Registry + serve.Service on its own loopback listener), drives ingest
// through the shard proxy at 1 vs 2 shards, and drives the mixed read
// workload against a lone primary vs a primary plus one caught-up
// follower. The two speedups — sharded ingest and replicated reads —
// are the ratios the CI bench-smoke gate holds steady. On a single-core
// host the honest speedups hover near 1.0x (every node shares one CPU);
// the gate is therefore baseline-relative, not absolute.
//
// The package sits beside (not inside) workflowgen because core's
// in-package tests import workflowgen, so driving core/serve from
// workflowgen itself would cycle the test binary's import graph.
package scaleout

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/replica"
	"lipstick/internal/serve"
	"lipstick/internal/shard"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// ReportKind tags the JSON report so the bench-smoke driver can dispatch
// baselines by shape.
const ReportKind = "scaleout"

// streams/readers fix the client side of every scenario so the 1-vs-2
// comparisons vary only the server topology.
const (
	streams = 4
	readers = 4
)

// IngestResult contrasts proxied ingest throughput at one vs two shards.
type IngestResult struct {
	Streams              int     `json:"streams"`
	OneShardEventsPerSec float64 `json:"oneShardEventsPerSec"`
	TwoShardEventsPerSec float64 `json:"twoShardEventsPerSec"`
}

// Speedup is two-shard ingest throughput over one-shard.
func (r IngestResult) Speedup() float64 {
	if r.OneShardEventsPerSec == 0 {
		return 0
	}
	return r.TwoShardEventsPerSec / r.OneShardEventsPerSec
}

// ReadsResult contrasts read throughput against the primary alone vs the
// primary plus one follower (readers spread across both replicas).
type ReadsResult struct {
	Readers                 int     `json:"readers"`
	PrimaryOnlyReadsPerSec  float64 `json:"primaryOnlyReadsPerSec"`
	WithFollowerReadsPerSec float64 `json:"withFollowerReadsPerSec"`
	// FollowerLagSeq is the follower's sequence lag when its measurement
	// started — 0 records that the comparison ran against a caught-up
	// replica, not a seeding one.
	FollowerLagSeq uint64 `json:"followerLagSeq"`
}

// Speedup is primary+follower read throughput over primary-only.
func (r ReadsResult) Speedup() float64 {
	if r.PrimaryOnlyReadsPerSec == 0 {
		return 0
	}
	return r.WithFollowerReadsPerSec / r.PrimaryOnlyReadsPerSec
}

// Report is the machine-readable result (written to BENCH_scaleout.json;
// CI's bench-smoke gate compares against the checked-in copy).
type Report struct {
	Kind   string       `json:"kind"`
	Ingest IngestResult `json:"ingest"`
	Reads  ReadsResult  `json:"reads"`
}

// Geomean folds the two scaling ratios into the single gated number.
func (r *Report) Geomean() float64 {
	is, rs := r.Ingest.Speedup(), r.Reads.Speedup()
	if is <= 0 || rs <= 0 {
		return 0
	}
	return math.Exp((math.Log(is) + math.Log(rs)) / 2)
}

// WriteJSON emits the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport loads a previously written report.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("scaleout: %s: %w", path, err)
	}
	if r.Kind != ReportKind {
		return nil, fmt.Errorf("scaleout: %s: kind %q, want %q", path, r.Kind, ReportKind)
	}
	return &r, nil
}

// Compare gates a current report against the checked-in baseline: the
// geomean of the two scaling speedups may not drop by more than tol
// (fractional, e.g. 0.20). Both speedups are ratios between topologies
// measured on the same machine in the same process, so they transfer
// across hardware where absolute rates do not — including single-core
// runners, where both sit near 1.0x and the gate catches a topology
// layer that started costing throughput instead of adding it.
func Compare(baseline, current *Report, tol float64) error {
	base, cur := baseline.Geomean(), current.Geomean()
	if base <= 0 {
		return fmt.Errorf("scaleout: baseline report has no usable speedups")
	}
	if cur < base*(1-tol) {
		return fmt.Errorf("scaleout regression: scaling geomean %.3fx below baseline %.3fx by more than %.0f%% (ingest %.3fx vs %.3fx, reads %.3fx vs %.3fx)",
			cur, base, tol*100,
			current.Ingest.Speedup(), baseline.Ingest.Speedup(),
			current.Reads.Speedup(), baseline.Reads.Speedup())
	}
	return nil
}

// Series measures the full report: ingest at 1 and 2 shards, reads at 0
// and 1 followers. perScenario bounds each scenario's measured window.
func Series(perScenario time.Duration) (*Report, error) {
	events, err := captureEvents(240, 4)
	if err != nil {
		return nil, err
	}
	report := &Report{Kind: ReportKind}
	report.Ingest.Streams = streams
	one, err := measureIngest(1, events, perScenario)
	if err != nil {
		return nil, err
	}
	two, err := measureIngest(2, events, perScenario)
	if err != nil {
		return nil, err
	}
	report.Ingest.OneShardEventsPerSec, report.Ingest.TwoShardEventsPerSec = one, two
	reads, err := measureReads(events, perScenario)
	if err != nil {
		return nil, err
	}
	report.Reads = reads
	return report, nil
}

// captureEvents records one dealership run as a replayable event stream.
func captureEvents(cars, execs int) ([]provgraph.Event, error) {
	log := provgraph.NewEventLog()
	if _, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: cars, NumExec: execs, Seed: 7, Gran: workflow.Fine,
		EventSink: log.Record,
	}); err != nil {
		return nil, err
	}
	return log.Drain(), nil
}

// node is one in-process lipstick server: a live-dir registry behind the
// real HTTP handler on a loopback listener.
type node struct {
	svc *serve.Service
	srv *http.Server
	url string
	dir string
}

func startNode(dir string) (*node, error) {
	reg := core.NewRegistry(nil, core.WithLiveDir(dir))
	svc := serve.NewRegistryService(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	n := &node{
		svc: svc,
		srv: &http.Server{Handler: svc.Handler("")},
		url: "http://" + ln.Addr().String(),
		dir: dir,
	}
	go func() { _ = n.srv.Serve(ln) }() // Serve returns ErrServerClosed on close
	return n, nil
}

func (n *node) close() {
	_ = n.srv.Close()
	_ = n.svc.Registry().Close()
}

// measureIngest replays the capture through a shard proxy over `shards`
// nodes and returns the sustained events/s across all streams.
func measureIngest(shards int, events []provgraph.Event, window time.Duration) (float64, error) {
	dir, err := os.MkdirTemp("", "scaleout")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	nodes := make([]*node, shards)
	urls := make([]string, shards)
	for i := range nodes {
		ndir, err := os.MkdirTemp(dir, "node")
		if err != nil {
			return 0, err
		}
		if nodes[i], err = startNode(ndir); err != nil {
			return 0, err
		}
		defer nodes[i].close()
		urls[i] = nodes[i].url
	}
	proxy, err := shard.NewProxy(urls)
	if err != nil {
		return 0, err
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	psrv := &http.Server{Handler: proxy.Handler()}
	go func() { _ = psrv.Serve(pln) }()
	defer func() { _ = psrv.Close() }()
	proxyURL := "http://" + pln.Addr().String()

	var (
		applied  atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	fail := func(e error) { firstErr.CompareAndSwap(nil, &e) }
	start := time.Now()
	deadline := start.Add(window)
	for w := 0; w < streams; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for run := 0; time.Now().Before(deadline); run++ {
				// Each incarnation is a fresh graph name (an event stream
				// applies once); the proxy consistent-hashes the name to its
				// shard.
				c := serve.NewIngestClient(proxyURL, fmt.Sprintf("so-%d-%d", w, run), 256)
				c.MaxRetries = 1 << 20
				c.RetryBase = 5 * time.Millisecond
				for i := 0; i < len(events) && time.Now().Before(deadline); i++ {
					c.Record(events[i])
					if err := c.Err(); err != nil {
						fail(err)
						return
					}
				}
				if err := c.Flush(); err != nil {
					fail(err)
					return
				}
				applied.Add(int64(c.Sent()))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if e := firstErr.Load(); e != nil {
		return 0, fmt.Errorf("scaleout: ingest at %d shard(s): %w", shards, *e)
	}
	if applied.Load() == 0 {
		return 0, fmt.Errorf("scaleout: ingest at %d shard(s): no events applied", shards)
	}
	return float64(applied.Load()) / elapsed.Seconds(), nil
}

// measureReads ingests one stream into a primary, measures read
// throughput against the primary alone, then attaches a follower, waits
// for it to catch up, and measures again with the readers spread across
// both replicas.
func measureReads(events []provgraph.Event, window time.Duration) (ReadsResult, error) {
	res := ReadsResult{Readers: readers}
	dir, err := os.MkdirTemp("", "scaleout")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	pdir, err := os.MkdirTemp(dir, "primary")
	if err != nil {
		return res, err
	}
	primary, err := startNode(pdir)
	if err != nil {
		return res, err
	}
	defer primary.close()

	const name = "so-read"
	c := serve.NewIngestClient(primary.url, name, 256)
	for _, ev := range events {
		c.Record(ev)
	}
	if err := c.Flush(); err != nil {
		return res, fmt.Errorf("scaleout: seeding %s: %w", name, err)
	}
	wantSeq := uint64(c.Sent())

	only, err := measureReadLoop([]string{primary.url}, name, window)
	if err != nil {
		return res, err
	}
	res.PrimaryOnlyReadsPerSec = only

	fdir, err := os.MkdirTemp(dir, "follower")
	if err != nil {
		return res, err
	}
	follower, err := startNode(fdir)
	if err != nil {
		return res, err
	}
	defer follower.close()
	mgr := replica.NewManager(follower.svc.Registry(), primary.url,
		replica.WithPollInterval(5*time.Millisecond),
		replica.WithLogf(func(string, ...any) {})) // benchmark runs stay quiet
	mgr.Start()
	defer mgr.Close()
	follower.svc.SetFollower(primary.url)
	follower.svc.SetReplicationLag(mgr.Lag)

	if err := waitCaughtUp(mgr, name, wantSeq, 30*time.Second); err != nil {
		return res, err
	}
	if lag, ok := mgr.Lag(name); ok {
		res.FollowerLagSeq = lag.LagSeq
	}
	both, err := measureReadLoop([]string{primary.url, follower.url}, name, window)
	if err != nil {
		return res, err
	}
	res.WithFollowerReadsPerSec = both
	return res, nil
}

// waitCaughtUp blocks until the follower has applied wantSeq.
func waitCaughtUp(mgr *replica.Manager, name string, wantSeq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if lag, ok := mgr.Lag(name); ok && lag.AppliedSeq >= wantSeq {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("scaleout: follower did not reach seq %d of %s within %v", wantSeq, name, timeout)
}

// measureReadLoop runs the closed-loop readers round-robin over the
// replica base URLs and returns reads/s. Only 200s count.
func measureReadLoop(bases []string, name string, window time.Duration) (float64, error) {
	var targets []string
	for _, base := range bases {
		targets = append(targets,
			fmt.Sprintf("%s/v1/snapshots/%s/find?type=m", base, name),
			fmt.Sprintf("%s/v1/snapshots/%s/info", base, name),
			fmt.Sprintf("%s/v1/snapshots/%s/outputs", base, name),
			fmt.Sprintf("%s/v1/snapshots/%s/find?class=p", base, name),
		)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var (
		reads atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; time.Now().Before(deadline); i++ {
				resp, err := client.Get(targets[i%len(targets)])
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					reads.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if reads.Load() == 0 {
		return 0, fmt.Errorf("scaleout: no reads completed against %v", bases)
	}
	return float64(reads.Load()) / elapsed.Seconds(), nil
}
