package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// LiveGraph is a provenance graph under construction: an ordered event
// stream (provgraph.Event, numbered 1,2,3,...) is applied by a single
// writer while concurrent readers answer the full query surface through a
// QueryProcessor over a published, immutable view of it (ReadView). It is
// the serving-side half of streaming ingestion — `POST /v1/ingest/{name}`
// appends batches here — and turns the batch pipeline ("finish the
// workflow, write the snapshot, then query") into one where every query
// endpoint answers mid-run.
//
// Queries stay indexed while events stream in: the postings index grows
// incrementally with each applied node (appends arrive in id order, so
// the sorted-postings invariant holds for free), and FindNodes' post-index
// tail sweep covers whatever a reader races past.
//
// A LiveGraph can be durable: backed by a store.Log (write-ahead log), an
// acknowledged batch survives a process kill, and reopening the directory
// recovers checkpoint + WAL tail with no lost or duplicated events.
// Ingestion is idempotent by sequence number — re-sent batches overlap is
// skipped, gaps are rejected — which is what makes client retries safe.
type LiveGraph struct {
	name string

	// writeMu serializes the staging half of ingestion (validate, apply,
	// WAL submission order) plus Checkpoint and Close. The durability
	// wait happens OUTSIDE writeMu (Wait on the commit handle), so while
	// one batch's fsync is in flight the next batches decode, validate,
	// apply, and enqueue — the pipeline that lets one disk flush absorb
	// many concurrent requests. WAL I/O never runs under mu, so readers
	// wait on memory mutation, not the disk.
	writeMu sync.Mutex
	// log is fixed at construction; the log synchronizes its own I/O, so
	// reading the pointer needs no lock.
	log       *store.Log // nil for in-memory live graphs
	ckptEvery uint64     // guarded by writeMu

	// sem is the admission gate: one token per in-flight batch between
	// AppendAsync and Wait. A full gate rejects with *OverloadedError
	// instead of queueing unboundedly. nil = unbounded.
	sem     chan struct{}
	queueHW atomic.Int64 // deepest the admission queue has been

	// inflight lists batches applied to the in-memory graph whose
	// durability is not yet confirmed, in sequence order (entries are
	// added under writeMu at submission). After a failed group commit the
	// log rolls back and these are the events that must be re-logged —
	// before any new ones, and before a duplicate retry batch is
	// acknowledged — so the log's positional sequence numbering never
	// diverges from the stream's and an acknowledged batch is durable.
	inflightMu sync.Mutex
	inflight   []pendingBatch // guarded by inflightMu

	// mu guards the mutable state below: the writer holds it while
	// applying events to memory, and a reader whose view is behind holds
	// it to publish a new one. Writes happen with BOTH writeMu and mu
	// held, so a reader may hold either one — hence the two-guard
	// annotations.
	mu       sync.RWMutex
	g        *provgraph.Graph // guarded by mu or writeMu
	ix       *liveIndex       // guarded by mu or writeMu
	seq      uint64           // last applied event sequence; guarded by mu or writeMu
	lastCkpt uint64           // guarded by mu or writeMu

	// view is the newest published read view. Store is the release half of
	// the epoch-publish protocol: everything the view's graph and postings
	// reference was written before the Store, and published structures are
	// never overwritten afterwards, so a Load-ing reader needs no lock.
	view atomic.Pointer[LiveView]
	// appliedSeq mirrors seq for ReadView's lock-free freshness check. It
	// is stored inside mu whenever seq moves: after each apply batch and
	// after recovery.
	appliedSeq atomic.Uint64
}

// LiveView is one published, immutable snapshot of a live graph: a query
// processor over an epoch-published graph view and postings snapshot.
// Any number of goroutines may query it concurrently without locks, and
// it stays valid (frozen at its sequence) for as long as it is retained.
type LiveView struct {
	// Seq is the last event sequence the view includes.
	Seq uint64 // published via view
	// QP answers the full query surface over the frozen view.
	QP *QueryProcessor // published via view
}

// pendingBatch is one applied-but-not-yet-durable span of the stream.
type pendingBatch struct {
	firstSeq uint64
	events   []provgraph.Event
}

// DefaultCheckpointEvery is how many events a durable live graph ingests
// between automatic checkpoints.
const DefaultCheckpointEvery = 1 << 16

// DefaultIngestQueueDepth is how many batches may sit between admission
// and durability before new ones are shed with *OverloadedError.
const DefaultIngestQueueDepth = 64

// DefaultPublishEvery was the writer's view-publish cadence in events.
//
// Deprecated: views are published only when a read finds them behind the
// applied stream, or at a checkpoint. The one remaining caller is the
// serve-mixed benchmark's publish probe (bench/servemixed.go:622–625),
// which sizes its batches by it; ROADMAP.md direction 12 removes that caller
// and this constant with it.
const DefaultPublishEvery = 4096

// liveConfig collects LiveOption state.
type liveConfig struct {
	ckptEvery  uint64
	logOpts    []store.LogOption
	queueDepth int
}

// LiveOption configures a durable live graph.
type LiveOption func(*liveConfig)

// WithCheckpointEvery sets the automatic checkpoint interval in events
// (0 disables automatic checkpoints; Checkpoint can still be called).
func WithCheckpointEvery(n uint64) LiveOption {
	return func(c *liveConfig) { c.ckptEvery = n }
}

// WithLogOptions forwards options to the underlying write-ahead log
// (segment size, fsync policy, group-commit tuning).
func WithLogOptions(opts ...store.LogOption) LiveOption {
	return func(c *liveConfig) { c.logOpts = append(c.logOpts, opts...) }
}

// WithIngestQueueDepth bounds the batches in flight between admission
// and durability: past the bound, Append rejects with *OverloadedError
// (HTTP 429) instead of growing memory without bound. 0 selects
// DefaultIngestQueueDepth; negative disables admission control.
func WithIngestQueueDepth(n int) LiveOption {
	return func(c *liveConfig) { c.queueDepth = n }
}

// WithPublishEvery is a no-op: the writer no longer publishes views on a
// cadence.
//
// Deprecated: views are published only when a read finds them behind the
// applied stream, or at a checkpoint. The one remaining caller is the
// serve-mixed benchmark's publish probe (bench/servemixed.go:622–625);
// ROADMAP.md direction 12 removes that caller and this option with it.
func WithPublishEvery(int) LiveOption {
	return func(*liveConfig) {}
}

// admissionGate builds the semaphore for a configured depth.
func admissionGate(depth int) chan struct{} {
	if depth == 0 {
		depth = DefaultIngestQueueDepth
	}
	if depth < 0 {
		return nil
	}
	return make(chan struct{}, depth)
}

// NewLiveGraph returns an empty in-memory live graph (no durability).
// Log-related options are ignored; the ingest queue depth applies.
func NewLiveGraph(name string, opts ...LiveOption) *LiveGraph {
	var cfg liveConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	l := &LiveGraph{name: name, g: provgraph.New(), sem: admissionGate(cfg.queueDepth)}
	l.g.PrepareForIngest()
	l.ix = newLiveIndex(l.g, nil)
	l.mu.Lock()
	l.publishLocked()
	l.mu.Unlock()
	return l
}

// OpenLiveGraph opens (creating if needed) a durable live graph backed by
// a write-ahead log directory, recovering checkpoint + tail state.
func OpenLiveGraph(name, dir string, opts ...LiveOption) (*LiveGraph, error) {
	cfg := liveConfig{ckptEvery: DefaultCheckpointEvery}
	for _, opt := range opts {
		opt(&cfg)
	}
	log, rec, err := store.OpenLog(dir, cfg.logOpts...)
	if err != nil {
		return nil, err
	}
	l := &LiveGraph{
		name: name, log: log,
		ckptEvery: cfg.ckptEvery, sem: admissionGate(cfg.queueDepth),
	}
	var base store.Postings
	if rec.Snapshot != nil {
		l.g = rec.Snapshot.Graph
		switch {
		case rec.Snapshot.Postings != nil:
			base = rec.Snapshot.Postings
		case rec.Snapshot.Index != nil:
			base = rec.Snapshot.Index
		default:
			base = store.BuildIndex(l.g)
		}
	} else {
		l.g = provgraph.New()
	}
	l.g.PrepareForIngest()
	l.ix = newLiveIndex(l.g, base)
	l.seq = rec.CheckpointSeq
	l.lastCkpt = rec.CheckpointSeq
	for i := range rec.Tail {
		if err := l.applyLocked(rec.Tail[i]); err != nil {
			log.Close()
			return nil, fmt.Errorf("lipstick: replaying wal event %d of %s: %w", l.seq+1, name, err)
		}
		l.seq++
	}
	l.mu.Lock()
	l.publishLocked()
	l.appliedSeq.Store(l.seq)
	l.mu.Unlock()
	return l, nil
}

// Name returns the registry name of the live graph.
func (l *LiveGraph) Name() string { return l.name }

// Seq returns the sequence number of the last applied event.
func (l *LiveGraph) Seq() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.seq
}

// Durable reports whether the live graph is WAL-backed.
func (l *LiveGraph) Durable() bool { return l.log != nil }

// SeqGapError reports an ingest batch that starts past the live graph's
// next expected sequence — events in between were never received.
type SeqGapError struct {
	Name     string
	Expected uint64
	Got      uint64
}

// Error implements error.
func (e *SeqGapError) Error() string {
	return fmt.Sprintf("lipstick: ingest gap on %q: expected sequence %d, batch starts at %d", e.Name, e.Expected, e.Got)
}

// EventError reports an ingested event the graph cannot apply: its batch
// decoded, but the event does not continue the graph (a node id out of
// sequence, an edge to a missing node, ...). The batch's events before it
// were applied.
type EventError struct {
	Name string
	// Seq is the event's stream sequence number.
	Seq uint64
	Err error
}

// Error implements error.
func (e *EventError) Error() string {
	return fmt.Sprintf("lipstick: ingest event %d of %s: %v", e.Seq, e.Name, e.Err)
}

// Unwrap returns the graph's reason for refusing the event.
func (e *EventError) Unwrap() error { return e.Err }

// IngestStatus reports the outcome of one Append.
type IngestStatus struct {
	// Seq is the live graph's last applied sequence after the batch.
	Seq uint64
	// Applied counts the events the batch actually added.
	Applied int
	// Duplicates counts re-sent events skipped by sequence overlap.
	Duplicates int
}

// Append ingests a batch whose first event carries sequence firstSeq.
// Batches must arrive in order: overlap with already-applied sequences is
// skipped (idempotent retries), a gap is rejected with *SeqGapError, and
// a full admission queue with *OverloadedError. For durable graphs the
// applied suffix is WAL-logged (and fsynced, per the log's policy) before
// Append returns; only the in-memory application excludes readers, so
// concurrent queries never wait on the disk.
func (l *LiveGraph) Append(firstSeq uint64, events []provgraph.Event) (IngestStatus, error) {
	return l.AppendAsync(firstSeq, events).Wait()
}

// PendingAppend is a staged ingest batch: admitted, validated, applied to
// the in-memory graph, and (durable graphs) enqueued for group commit.
// Wait must be called exactly once; until then the batch holds its
// admission slot.
type PendingAppend struct {
	l        *LiveGraph
	st       IngestStatus
	err      error // admission/validation/durability error
	applyErr error
	commit   *store.Commit
	slot     bool
}

// AppendAsync runs the ingest pipeline's staging half — admission,
// sequence validation (dup-skip / gap), in-memory application, and WAL
// submission — and returns without waiting for durability. WAL record
// encoding happens before any lock is taken, and the fsync wait happens
// in Wait, outside writeMu: while one batch's flush is in flight the
// next requests stage and enqueue, so one group commit absorbs them all.
// For in-memory graphs the returned handle is already resolved.
func (l *LiveGraph) AppendAsync(firstSeq uint64, events []provgraph.Event) *PendingAppend {
	p := &PendingAppend{l: l}
	// Admission: shed load instead of queueing without bound.
	if l.sem != nil {
		select {
		case l.sem <- struct{}{}:
			p.slot = true
			// CAS max: a concurrent lower observation must not overwrite a
			// higher watermark.
			for hw := int64(len(l.sem)); ; {
				cur := l.queueHW.Load()
				if hw <= cur || l.queueHW.CompareAndSwap(cur, hw) {
					break
				}
			}
		default:
			statIngestOverloads.Add(1)
			p.st.Seq = l.Seq()
			p.err = &OverloadedError{Name: l.name, Depth: cap(l.sem)}
			return p
		}
	}
	// Encode WAL records outside every lock: concurrent requests encode in
	// parallel with each other and with the committer.
	var recs *store.Records
	if l.log != nil {
		r, err := store.EncodeRecords(events)
		if err != nil {
			p.err = err
			return p
		}
		recs = r
	}
	l.writeMu.Lock()
	// Re-log anything a failed commit left undurable before accepting new
	// events, so WAL positions stay aligned with stream sequences.
	if err := l.flushBacklogLocked(); err != nil {
		l.writeMu.Unlock()
		if recs != nil {
			recs.Recycle()
		}
		p.st.Seq, p.err = l.Seq(), err
		return p
	}
	// seq only changes under writeMu, so this read needs no mu.
	expected := l.seq + 1
	if firstSeq > expected {
		seq := l.seq
		l.writeMu.Unlock()
		if recs != nil {
			recs.Recycle()
		}
		p.st.Seq = seq
		p.err = &SeqGapError{Name: l.name, Expected: expected, Got: firstSeq}
		return p
	}
	skip := int(expected - firstSeq)
	if skip >= len(events) {
		// A fully duplicate batch is a retry of events that may not be
		// durable yet; the acknowledgement promises durability, so earn
		// it with a barrier behind every queued commit.
		p.st = IngestStatus{Seq: l.seq, Duplicates: len(events)}
		if l.log != nil {
			if c, err := l.log.Barrier(); err != nil {
				p.err = err
			} else {
				p.commit = c
			}
		}
		l.writeMu.Unlock()
		if recs != nil {
			recs.Recycle()
		}
		return p
	}
	fresh := events[skip:]
	if recs != nil {
		recs.Skip(skip)
	}
	applied := 0
	l.mu.Lock()
	for i := range fresh {
		if err := l.applyLocked(fresh[i]); err != nil {
			p.applyErr = &EventError{Name: l.name, Seq: l.seq + uint64(applied) + 1, Err: err}
			break
		}
		applied++
	}
	l.seq += uint64(applied)
	l.appliedSeq.Store(l.seq)
	l.mu.Unlock()
	// Counters track applied events; they must move even when the WAL
	// write below fails, or a dup-skipped retry would leave them behind
	// the stream position forever.
	statIngestBatches.Add(1)
	statIngestEvents.Add(int64(applied))
	p.st = IngestStatus{Seq: l.seq, Applied: applied, Duplicates: skip}
	if l.log != nil && applied > 0 {
		recs.Truncate(applied)
		l.inflightMu.Lock()
		l.inflight = append(l.inflight, pendingBatch{firstSeq: expected, events: fresh[:applied]})
		l.inflightMu.Unlock()
		c, err := l.log.AppendRecords(recs)
		recs = nil // ownership transferred (recycled by the log)
		if err != nil {
			// Submission refused (failed/closed log): the events stay in
			// inflight for the next flush; surface the failure.
			p.err = err
		} else {
			p.commit = c
		}
	}
	if p.err == nil && p.applyErr == nil &&
		l.log != nil && l.ckptEvery > 0 && l.seq-l.lastCkpt >= l.ckptEvery {
		// The checkpoint op queues behind this batch's commit, so it
		// covers exactly the events applied so far; writeMu is held
		// throughout, keeping the graph stable for serialization.
		if err := l.checkpointLocked(); err != nil {
			p.err = err
		}
	}
	l.writeMu.Unlock()
	if recs != nil {
		recs.Recycle()
	}
	return p
}

// Wait blocks until the staged batch is durable (write + fsync per the
// log's policy) and returns the ingest outcome, releasing the admission
// slot. Durability failures take precedence over mid-batch apply errors,
// matching the synchronous Append contract.
func (p *PendingAppend) Wait() (IngestStatus, error) {
	if p.commit != nil {
		werr := p.commit.Wait()
		p.commit = nil
		if werr == nil {
			p.l.pruneInflight()
		} else if p.err == nil {
			p.err = fmt.Errorf("lipstick: logging ingest batch of %s: %w", p.l.name, werr)
		}
	}
	if p.slot {
		p.slot = false
		<-p.l.sem
	}
	if p.err != nil {
		return p.st, p.err
	}
	return p.st, p.applyErr
}

// pruneInflight drops inflight entries the log has made durable.
func (l *LiveGraph) pruneInflight() {
	durable := l.log.LastSeq()
	l.inflightMu.Lock()
	i := 0
	for i < len(l.inflight) {
		b := l.inflight[i]
		if b.firstSeq+uint64(len(b.events))-1 > durable {
			break
		}
		i++
	}
	l.inflight = l.inflight[i:]
	l.inflightMu.Unlock()
}

// flushBacklogLocked (writeMu held) restores the durable log to the
// stream's position: after a failed group commit rolled the log back, it
// re-logs the inflight suffix (inserted in order at submission, so the
// backlog is always contiguous) and clears the log's sticky failure.
func (l *LiveGraph) flushBacklogLocked() error {
	if l.log == nil {
		return nil
	}
	ferr := l.log.Failed()
	if ferr == nil {
		return nil
	}
	durable := l.log.LastSeq()
	need := durable + 1
	var events []provgraph.Event
	l.inflightMu.Lock()
	for _, b := range l.inflight {
		last := b.firstSeq + uint64(len(b.events)) - 1
		if last < need {
			continue // already durable before the failure
		}
		if b.firstSeq > need {
			l.inflightMu.Unlock()
			return fmt.Errorf("lipstick: durability backlog of %s has a hole at sequence %d: %w", l.name, need, ferr)
		}
		events = append(events, b.events[need-b.firstSeq:]...)
		need = last + 1
	}
	l.inflightMu.Unlock()
	l.log.ResetFailed()
	if len(events) == 0 {
		return nil
	}
	recs, err := store.EncodeRecords(events)
	if err != nil {
		return err
	}
	c, err := l.log.AppendRecords(recs)
	if err != nil {
		return err
	}
	if err := c.Wait(); err != nil {
		return fmt.Errorf("lipstick: re-logging %d events of %s: %w", len(events), l.name, err)
	}
	l.pruneInflight()
	return nil
}

// applyLocked applies one event to the graph and grows the postings index
// in step, so index-backed selection stays exact mid-ingest.
func (l *LiveGraph) applyLocked(ev provgraph.Event) error {
	if err := provgraph.Apply(l.g, ev); err != nil {
		return err
	}
	switch ev.Kind {
	case provgraph.EvAddNode:
		n := ev.Node
		module := ""
		if n.Inv >= 0 {
			module = l.g.Invocation(n.Inv).Module
		}
		l.ix.addNode(n, module)
	case provgraph.EvOpenInvocation:
		l.ix.addInvocation(ev.Module, ev.Inv)
	case provgraph.EvSetNodeInv:
		// The m-node joins its module's postings once the back-reference
		// lands (it was created before its invocation record existed).
		l.ix.setNodeModule(l.g.Invocation(ev.Inv).Module, ev.Src)
	}
	return nil
}

// Read runs fn against the query processor of ReadView's view: every
// read the processor supports (FindNodes, Subgraph, Lineage,
// WhatIfDelete, Expr, exports, stats) answers over every event applied
// before Read was called, and ingestion never waits for fn.
func (l *LiveGraph) Read(fn func(*QueryProcessor) error) error {
	return fn(l.ReadView().QP)
}

// publishLocked (mu held exclusively) publishes a fresh immutable view:
// an epoch-published graph view, a sealed postings snapshot, and a query
// processor over both, stamped with the applied sequence. The atomic
// Store is the release edge readers pair their Load with.
func (l *LiveGraph) publishLocked() {
	vg := l.g.PublishView()
	qp := &QueryProcessor{graph: vg, index: &Index{data: l.ix.publish()}}
	l.view.Store(&LiveView{Seq: l.seq, QP: qp})
}

// ReadView returns a published view that covers every event applied
// before the call (read-your-writes), to query without any locking. The
// fast path is two atomic loads: when the newest view already covers the
// applied stream, readers share it and never touch a mutex. Otherwise
// ReadView takes the write lock once and publishes. Views are published
// here and at checkpoints, and nowhere else: the writer never pays for a
// view nobody reads.
func (l *LiveGraph) ReadView() *LiveView {
	if v := l.view.Load(); v != nil && v.Seq == l.appliedSeq.Load() {
		return v
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if v := l.view.Load(); v != nil && v.Seq == l.seq {
		return v
	}
	l.publishLocked()
	return l.view.Load()
}

// Checkpoint compacts the durable log: the current graph is written as a
// standard LPSK v2 snapshot and the WAL prefix it covers is deleted. It
// is a no-op for in-memory live graphs.
func (l *LiveGraph) Checkpoint() error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.log == nil {
		return nil
	}
	return l.checkpointLocked()
}

// checkpointLocked (writeMu held) snapshots and compacts. No writer can be
// applying events, so the graph is stable for serialization; concurrent
// readers share it harmlessly.
func (l *LiveGraph) checkpointLocked() error {
	// The checkpoint is named by the log's own sequence; events a failed
	// commit rolled back must land there first or the snapshot would
	// contain events past the recorded checkpoint sequence. (Healthy
	// queued commits need no flush — the checkpoint op queues behind them
	// and covers them.)
	if err := l.flushBacklogLocked(); err != nil {
		return fmt.Errorf("lipstick: checkpoint of %s: flushing unlogged events: %w", l.name, err)
	}
	// Serialize from a freshly published view: the view's graph is
	// immutable and shares the columns' frozen tails, so readers keep
	// answering (and the snapshot is exactly the applied prefix) while
	// the checkpoint encodes.
	l.mu.Lock()
	l.publishLocked()
	v := l.view.Load()
	l.mu.Unlock()
	if err := l.log.Checkpoint(&store.Snapshot{Graph: v.QP.graph}); err != nil {
		return err
	}
	l.mu.Lock()
	l.lastCkpt = l.log.CheckpointSeq()
	l.mu.Unlock()
	return nil
}

// CheckpointSeq returns the sequence covered by the newest checkpoint
// (0 for in-memory graphs or before the first checkpoint).
func (l *LiveGraph) CheckpointSeq() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.lastCkpt
}

// Close flushes and closes the backing log (in-memory graphs: no-op).
func (l *LiveGraph) Close() error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if l.log == nil {
		return nil
	}
	if err := l.flushBacklogLocked(); err != nil {
		l.log.Close()
		return err
	}
	return l.log.Close()
}

// PipelineStats are the ingest pipeline's operational counters: how many
// coalesced group commits the WAL performed, how many batches they
// absorbed (Batches/Commits is the fsync amortization factor), the
// admission queue's configured depth, and the deepest it has been.
type PipelineStats struct {
	GroupCommits   int64 `json:"groupCommits"`
	GroupBatches   int64 `json:"groupBatches"`
	QueueDepth     int   `json:"queueDepth"`
	QueueHighWater int64 `json:"queueHighWater"`
}

// PipelineStats snapshots the graph's ingest pipeline counters.
func (l *LiveGraph) PipelineStats() PipelineStats {
	ps := PipelineStats{QueueHighWater: l.queueHW.Load()}
	if l.sem != nil {
		ps.QueueDepth = cap(l.sem)
	}
	if l.log != nil {
		gs := l.log.GroupStats()
		ps.GroupCommits, ps.GroupBatches = gs.Commits, gs.Batches
	}
	return ps
}

// LiveInfo summarizes a live graph for listings and metrics.
type LiveInfo struct {
	Name          string `json:"name"`
	Events        uint64 `json:"events"`
	Nodes         int    `json:"nodes"`
	Invocations   int    `json:"invocations"`
	Durable       bool   `json:"durable"`
	CheckpointSeq uint64 `json:"checkpointSeq"`
}

// Info snapshots the live graph's vital statistics.
func (l *LiveGraph) Info() LiveInfo {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return LiveInfo{
		Name:          l.name,
		Events:        l.seq,
		Nodes:         l.g.NumNodes(),
		Invocations:   l.g.NumInvocations(),
		Durable:       l.log != nil,
		CheckpointSeq: l.lastCkpt,
	}
}
