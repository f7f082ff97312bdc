package serve

import (
	"io"

	"lipstick/internal/core"
	"lipstick/internal/store"
)

// Streaming ingestion surface: event batches captured while a workflow
// runs (workflow.WithEventSink -> store.EncodeEventBatch) are POSTed to
// /v1/ingest/{name} and applied to a registry-named core.LiveGraph, whose
// read surface serves every query endpoint mid-ingest. The transport-
// agnostic handlers live here; http.go wires the routes.

// runFn executes a query callback against some target's processor.
type runFn func(func(*core.QueryProcessor) error) error

// pathRun answers queries from the cached processor of a static snapshot.
func (s *Service) pathRun(path string) runFn {
	return func(fn func(*core.QueryProcessor) error) error {
		qp, err := s.open(path)
		if err != nil {
			return err
		}
		return fn(qp)
	}
}

// targetRun resolves a registered name — live graph or static snapshot —
// to a query runner. Live reads run against a published view covering
// every applied event, so they see a consistent event prefix without
// blocking ingestion.
func (s *Service) targetRun(name string) (runFn, error) {
	if lg, err := s.reg.LiveGraph(name); err == nil {
		return lg.Read, nil
	}
	path, err := s.reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return s.pathRun(path), nil
}

// ReadTarget runs fn against the named target: a live graph (its newest
// published view) or a static snapshot's shared cached processor. fn
// must treat the processor as read-only and must not retain results that
// alias graph internals past its return.
func (s *Service) ReadTarget(name string, fn func(*core.QueryProcessor) error) error {
	run, err := s.targetRun(name)
	if err != nil {
		return err
	}
	return run(fn)
}

// IngestResult reports one applied event batch (or the stream's current
// position, for GET).
type IngestResult struct {
	Name string `json:"name"`
	// Seq is the stream's last applied sequence number.
	Seq uint64 `json:"seq"`
	// Applied counts events this batch added; Duplicates counts re-sent
	// events skipped by sequence overlap.
	Applied    int `json:"applied"`
	Duplicates int `json:"duplicates"`
	// Nodes is the live graph's node count after the batch.
	Nodes int `json:"nodes"`
}

// Ingest decodes one binary event batch (store.EncodeEventBatch framing)
// and appends it to the named live graph, creating the graph on first
// use. Ingestion is idempotent by sequence number: retried batches are
// absorbed, gaps are rejected with *core.SeqGapError (HTTP 409), and a
// full admission queue with *core.OverloadedError (HTTP 429 + Retry-After
// — senders back off and retry; nothing is lost or duplicated).
func (s *Service) Ingest(name string, body io.Reader) (*IngestResult, error) {
	if err := s.rejectFollowerWrite(); err != nil {
		return nil, err
	}
	firstSeq, events, err := store.DecodeEventBatch(body)
	if err != nil {
		return nil, badRequestf("ingest: %v", err)
	}
	// A stream that does not exist yet must start at sequence 1; reject
	// a mid-stream batch BEFORE creating the graph, or a mis-addressed
	// resume would claim the name (and, on durable servers, leave an
	// empty WAL directory behind) just to be told 409.
	if _, lerr := s.reg.LiveGraph(name); lerr != nil && firstSeq != 1 {
		return nil, &core.SeqGapError{Name: name, Expected: 1, Got: firstSeq}
	}
	// OpenLive errors keep their own nature: bad names map to 400 via
	// core.NameError, WAL recovery/I-O failures surface as 500s.
	lg, err := s.reg.OpenLive(name)
	if err != nil {
		return nil, err
	}
	st, err := lg.Append(firstSeq, events)
	if err != nil {
		return nil, err
	}
	info := lg.Info()
	return &IngestResult{
		Name: name, Seq: st.Seq, Applied: st.Applied,
		Duplicates: st.Duplicates, Nodes: info.Nodes,
	}, nil
}

// IngestStatus reports a live stream's position (senders resync from it).
func (s *Service) IngestStatus(name string) (*IngestResult, error) {
	lg, err := s.reg.LiveGraph(name)
	if err != nil {
		return nil, err
	}
	info := lg.Info()
	return &IngestResult{Name: name, Seq: info.Events, Nodes: info.Nodes}, nil
}

// CheckpointResult reports a forced checkpoint.
type CheckpointResult struct {
	Name string `json:"name"`
	// Seq is the event sequence the checkpoint covers.
	Seq uint64 `json:"seq"`
	// Durable is false when the graph has no write-ahead log (the request
	// was a no-op).
	Durable bool `json:"durable"`
}

// CheckpointLive forces a WAL checkpoint of the named live graph,
// compacting its log prefix into an LPSK v2 snapshot.
func (s *Service) CheckpointLive(name string) (*CheckpointResult, error) {
	if err := s.rejectFollowerWrite(); err != nil {
		return nil, err
	}
	lg, err := s.reg.LiveGraph(name)
	if err != nil {
		return nil, err
	}
	if err := lg.Checkpoint(); err != nil {
		return nil, err
	}
	return &CheckpointResult{Name: name, Seq: lg.CheckpointSeq(), Durable: lg.Durable()}, nil
}

// ForkSession clones a session's copy-on-write state into a new session
// (O(changes), never the base graph).
func (s *Service) ForkSession(id string) (*SessionResult, error) {
	sess, err := s.reg.ForkSession(id)
	if err != nil {
		return nil, err
	}
	return sessionResult(sess), nil
}

// StatsResult is the /v1/stats payload: per-instance gauges plus the
// process-wide expvar counters.
type StatsResult struct {
	Snapshots struct {
		Static int `json:"static"`
		Live   int `json:"live"`
	} `json:"snapshots"`
	LiveGraphs []core.LiveInfo `json:"liveGraphs"`
	Sessions   struct {
		Live    int   `json:"live"`
		Created int64 `json:"created"`
		Forked  int64 `json:"forked"`
		Evicted int64 `json:"evicted"`
		Expired int64 `json:"expired"`
	} `json:"sessions"`
	SnapshotCache struct {
		Entries int   `json:"entries"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
	} `json:"snapshotCache"`
	Ingest struct {
		Batches int64 `json:"batches"`
		Events  int64 `json:"events"`
		// Overloads counts batches shed by admission control (429s).
		Overloads int64 `json:"overloads"`
		// GroupCommits / GroupBatches: coalesced WAL flush cycles and the
		// batches they absorbed, summed over live graphs (their ratio is
		// the fsync amortization factor).
		GroupCommits int64 `json:"groupCommits"`
		GroupBatches int64 `json:"groupBatches"`
		// QueueHighWater is the deepest any live graph's admission queue
		// has been.
		QueueHighWater int64 `json:"queueHighWater"`
	} `json:"ingest"`
	// Replication is present on followers (and on any server with a lag
	// reporter installed): the worst lag across followed streams.
	Replication *ReplicationStats `json:"replication,omitempty"`
	Queries     struct {
		// Count / P50Micros / P99Micros summarize query endpoint service
		// time (log-bucketed histogram; quantiles are bucket upper bounds).
		Count     int64 `json:"count"`
		P50Micros int64 `json:"p50Micros"`
		P99Micros int64 `json:"p99Micros"`
		// Cache* describe the seq-stamped query-result cache.
		CacheEntries int   `json:"cacheEntries"`
		CacheBytes   int64 `json:"cacheBytes"`
		CacheHits    int64 `json:"cacheHits"`
		CacheMisses  int64 `json:"cacheMisses"`
	} `json:"queries"`
}

// Stats snapshots the service's operational metrics.
func (s *Service) Stats() *StatsResult {
	c := core.ReadCounters()
	res := &StatsResult{LiveGraphs: []core.LiveInfo{}}
	// One lock-consistent listing, partitioned by kind — two separate
	// registry reads could disagree under concurrent registration.
	for _, info := range s.reg.Snapshots() {
		if info.Kind == "live" {
			res.Snapshots.Live++
		} else {
			res.Snapshots.Static++
		}
	}
	for _, lg := range s.reg.LiveGraphs() {
		res.LiveGraphs = append(res.LiveGraphs, lg.Info())
	}
	res.Sessions.Live = s.reg.NumSessions()
	res.Sessions.Created = c.SessionsCreated
	res.Sessions.Forked = c.SessionsForked
	res.Sessions.Evicted = c.SessionsEvicted
	res.Sessions.Expired = c.SessionsExpired
	res.SnapshotCache.Entries = s.mgr.Len()
	res.SnapshotCache.Hits = c.SnapshotCacheHits
	res.SnapshotCache.Misses = c.SnapshotCacheMisses
	res.Ingest.Batches = c.IngestBatches
	res.Ingest.Events = c.IngestEvents
	res.Ingest.Overloads = c.IngestOverloads
	for _, lg := range s.reg.LiveGraphs() {
		ps := lg.PipelineStats()
		res.Ingest.GroupCommits += ps.GroupCommits
		res.Ingest.GroupBatches += ps.GroupBatches
		if ps.QueueHighWater > res.Ingest.QueueHighWater {
			res.Ingest.QueueHighWater = ps.QueueHighWater
		}
	}
	if repl := s.replicationStats(); repl != nil {
		res.Replication = repl
	}
	ql := core.ReadQueryLatency()
	res.Queries.Count = ql.Count
	res.Queries.P50Micros = ql.P50us
	res.Queries.P99Micros = ql.P99us
	res.Queries.CacheEntries = s.cache.Len()
	res.Queries.CacheBytes = s.cache.Bytes()
	res.Queries.CacheHits = c.QueryCacheHits
	res.Queries.CacheMisses = c.QueryCacheMisses
	return res
}
