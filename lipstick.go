// Package lipstick is the public API of the Lipstick workflow-provenance
// library, a from-scratch Go implementation of "Putting Lipstick on Pig:
// Enabling Database-style Workflow Provenance" (Amsterdamer, Davidson,
// Deutch, Milo, Stoyanovich, Tannen; VLDB 2011).
//
// Lipstick marries database-style and workflow-style provenance: workflow
// modules expose their functionality as Pig Latin queries over nested
// relations, and executions are tracked into a provenance graph that
// records fine-grained derivations (+, ·, δ, ⊗, aggregates, black boxes)
// alongside workflow structure (module invocations, module inputs and
// outputs, module state, workflow inputs). The graph supports ZoomIn and
// ZoomOut between granularities, deletion propagation for what-if
// analysis, and subgraph/dependency queries.
//
// A minimal session:
//
//	w := lipstick.NewWorkflow()                      // build a DAG of modules
//	... w.AddNode / w.AddEdge / w.In / w.Out ...
//	tr, err := lipstick.NewTracker(w, lipstick.Fine) // validate + prepare tracking
//	tr.Runner().SetState("M_dealer", "Cars", bag, "car")
//	exec, err := tr.Execute(lipstick.Inputs{"req": {"Requests": requests}})
//	err = tr.Save("run.lpsk")                        // persist provenance
//
//	qp, err := lipstick.Load("run.lpsk")             // read-only query processor
//	res := qp.WhatIfDelete(node)                     // deletion propagation
//	ok := qp.DependsOn(bid, car)                     // dependency query
//	sess := lipstick.NewSession(qp)                  // copy-on-write what-if view
//	rec, err := sess.ZoomOut("M_dealer")             // zoom (Section 4.1)
//	del, aggs := sess.ApplyDelete(node)              // applied deletion + recompute
//
// Each execution runs its module invocations one at a time in topological
// order, threading module state from one execution to the next
// (Definition 2.3), so a run's graph and its node ids are deterministic.
//
// Queries are index-backed and servable: snapshots persist postings lists
// (node type, op, label, module) next to the graph, so FindNodes
// intersects postings instead of scanning, and Open answers repeated
// queries against one snapshot from a process-wide cache
// (SnapshotManager). NewQueryService exposes the same handler layer the
// `lipstick` CLI uses; its Handler method serves every query over HTTP
// (`lipstick serve -addr :8080 run.lpsk`).
//
// Serving is multi-tenant: a Registry names many snapshots (explicit
// registration or a directory scan — `lipstick serve -dir snapshots/`)
// and opens mutable Sessions over them. A session applies zoom and
// deletion-propagation transformations to a copy-on-write overlay of the
// shared base graph, so creating one never deep-copies the graph, its
// state costs O(changes), sessions expire by TTL/LRU, and concurrent
// read queries against the base snapshot stay untouched. Session queries
// answer exactly as a Clone-then-mutate baseline would. Sessions fork:
// ForkSession clones a session's delta sets (never the base) into an
// independent what-if branch.
//
// Capture streams: WithEventSink observes every provenance-graph mutation
// of a run as a typed Event, in deterministic order. Replay reconstructs
// a graph event-for-event from the stream; a LiveGraph applies events
// behind a single writer while serving every
// read query concurrently, with incrementally maintained postings so live
// selection stays indexed; and an IngestClient ships batches to a running
// `lipstick serve` (`POST /v1/ingest/{name}`), which answers all read
// endpoints against the stream mid-workflow. Live graphs can be durable:
// a segmented write-ahead log with periodic LPSK v3 checkpoints makes
// crash recovery checkpoint-load + tail-replay, idempotent by sequence
// number.
//
// The facade re-exports the stable surface of the internal packages; the
// full functionality (Pig Latin compiler, evaluation engine, provenance
// semirings, NRC translation, OPM export, benchmark workloads) lives under
// internal/ and is exercised by the examples and the benchmark harness.
package lipstick

import (
	"lipstick/internal/core"
	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
	"lipstick/internal/serve"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
)

// Data model.
type (
	// Value is a dynamically typed nested value (scalar, tuple, or bag).
	Value = nested.Value
	// Tuple is an ordered sequence of values.
	Tuple = nested.Tuple
	// Bag is an unordered multiset of tuples — the Pig Latin relation type.
	Bag = nested.Bag
	// Schema describes the fields of a relation's tuples.
	Schema = nested.Schema
	// Field is a named, typed column.
	Field = nested.Field
	// Type is a field type (scalar kind or nested tuple/bag).
	Type = nested.Type
	// RelationSchemas maps relation names to schemas.
	RelationSchemas = nested.RelationSchemas
)

// Value constructors.
var (
	// Null returns the null value.
	Null = nested.Null
	// Bool builds a boolean value.
	Bool = nested.Bool
	// Int builds an integer value.
	Int = nested.Int
	// Float builds a floating point value.
	Float = nested.Float
	// Str builds a string value.
	Str = nested.Str
	// TupleVal wraps a tuple as a value.
	TupleVal = nested.TupleVal
	// BagVal wraps a bag as a value.
	BagVal = nested.BagVal
	// NewTuple builds a tuple from values.
	NewTuple = nested.NewTuple
	// NewBag builds a bag from tuples.
	NewBag = nested.NewBag
	// NewSchema builds a schema from fields.
	NewSchema = nested.NewSchema
	// ScalarType builds a scalar field type.
	ScalarType = nested.ScalarType
	// TupleType builds a nested-tuple field type.
	TupleType = nested.TupleType
	// BagType builds a nested-bag field type.
	BagType = nested.BagType
)

// Scalar kinds.
const (
	KindNull   = nested.KindNull
	KindBool   = nested.KindBool
	KindInt    = nested.KindInt
	KindFloat  = nested.KindFloat
	KindString = nested.KindString
	KindTuple  = nested.KindTuple
	KindBag    = nested.KindBag
)

// Workflow model (Definitions 2.1-2.3 of the paper).
type (
	// Module is a workflow module: Pig Latin queries over input, state,
	// and output relational schemas.
	Module = workflow.Module
	// Workflow is a connected DAG of module nodes.
	Workflow = workflow.Workflow
	// Inputs supplies one execution's workflow inputs.
	Inputs = workflow.Inputs
	// Execution is the result of one workflow execution.
	Execution = workflow.Execution
	// Granularity selects plain, coarse-grained, or fine-grained tracking.
	Granularity = workflow.Granularity
	// UDF is a user-defined (black box) function callable from Pig Latin.
	UDF = pig.UDF
	// UDFRegistry resolves UDF names for a module's programs. (Registry
	// names the snapshot/session registry of the serving layer.)
	UDFRegistry = pig.Registry
)

// Tracking granularities.
const (
	// Plain records no provenance.
	Plain = workflow.Plain
	// Coarse records workflow-level provenance (Section 3.1).
	Coarse = workflow.Coarse
	// Fine records full database-style provenance (Section 3.2).
	Fine = workflow.Fine
)

// Workflow constructors.
var (
	// NewWorkflow returns an empty workflow DAG.
	NewWorkflow = workflow.New
	// NewUDFRegistry returns an empty UDF registry.
	NewUDFRegistry = pig.NewRegistry
	// WithEagerStateNodes makes invocations wrap every state tuple
	// eagerly (the letter of Section 3.2) instead of on first use.
	WithEagerStateNodes = workflow.WithEagerStateNodes
)

// The Lipstick system (Section 5.1).
type (
	// Tracker is the Provenance Tracker: executes workflows and persists
	// provenance-annotated outputs plus the provenance graph.
	Tracker = core.Tracker
	// QueryProcessor answers read-only selection, what-if deletion,
	// subgraph, and dependency queries over a loaded provenance graph,
	// selecting nodes through the snapshot's postings index; a Session
	// over it zooms and applies deletions.
	QueryProcessor = core.QueryProcessor
	// NodeFilter selects graph nodes by structural properties.
	NodeFilter = core.NodeFilter
	// Lineage classifies everything a node's existence draws on.
	Lineage = core.Lineage
	// Snapshot is the tracker's persistent output.
	Snapshot = store.Snapshot
	// SnapshotManager is an LRU cache of loaded query processors keyed by
	// snapshot path, revalidated against file mtime+size.
	SnapshotManager = core.SnapshotManager
	// QueryService is the transport-agnostic query handler layer shared by
	// the lipstick CLI and `lipstick serve`; its Handler method exposes
	// every query over HTTP.
	QueryService = serve.Service
	// Registry names snapshots (explicit registration or directory scan)
	// over a SnapshotManager and manages copy-on-write mutation sessions;
	// `lipstick serve -dir` exposes it over HTTP.
	Registry = core.Registry
	// RegistryOption configures a Registry (session TTL, session cap).
	RegistryOption = core.RegistryOption
	// Session is a mutable what-if view over one snapshot: zoom and
	// deletion transformations are recorded as overlay deltas over the
	// shared base graph, so a session costs O(changes), not a deep copy.
	Session = core.Session
	// SnapshotInfo describes one registered snapshot (name + path).
	SnapshotInfo = core.SnapshotInfo
	// NotFoundError reports an unknown snapshot name or session id.
	NotFoundError = core.NotFoundError
	// GraphView is the read surface shared by a Graph and a session's
	// copy-on-write overlay.
	GraphView = provgraph.GraphView
	// Overlay is a copy-on-write view over an immutable base Graph.
	Overlay = provgraph.Overlay

	// Event is one captured provenance-graph mutation (the unit of
	// streaming capture and ingestion).
	Event = provgraph.Event
	// EventKind tags an Event's mutation type.
	EventKind = provgraph.EventKind
	// EventLog is a concurrency-safe capture buffer usable as an event
	// sink; senders drain batches from it.
	EventLog = provgraph.EventLog
	// LiveGraph is a provenance graph under streaming construction:
	// single-writer event application, concurrent indexed reads, and
	// optional WAL-backed durability with checkpoint compaction.
	LiveGraph = core.LiveGraph
	// LiveInfo summarizes a live graph (event count, nodes, durability).
	LiveInfo = core.LiveInfo
	// LiveOption configures a durable live graph (checkpoint cadence,
	// WAL tuning).
	LiveOption = core.LiveOption
	// IngestStatus reports one applied event batch.
	IngestStatus = core.IngestStatus
	// PendingAppend is a staged ingest batch whose durability wait
	// happens in Wait — the pipelined half of LiveGraph.AppendAsync.
	PendingAppend = core.PendingAppend
	// PipelineStats are a live graph's ingest-pipeline counters (group
	// commits, batches per commit, admission queue high-water).
	PipelineStats = core.PipelineStats
	// SeqGapError reports an ingest batch that skips ahead of a live
	// graph's event sequence.
	SeqGapError = core.SeqGapError
	// OverloadedError reports an ingest batch shed by admission control
	// (the HTTP layer's 429).
	OverloadedError = core.OverloadedError
	// IngestClient streams captured events to a lipstick server's
	// /v1/ingest/{name} endpoint as they are recorded, retrying overload
	// rejections with jittered backoff.
	IngestClient = serve.IngestClient
)

// System constructors.
var (
	// NewTracker validates a workflow and prepares provenance tracking.
	NewTracker = core.NewTracker
	// Load reads a tracker snapshot from disk into a query processor
	// (a private instance; see Open for the cached one).
	Load = core.Load
	// Open returns the process-wide cached query processor for a snapshot
	// path, loading it at most once per file version. The instance is
	// shared; transform its graph through a Session.
	Open = core.Open
	// NewSnapshotManager builds a private snapshot cache (capacity <= 0
	// selects the default).
	NewSnapshotManager = core.NewSnapshotManager
	// NewQueryService builds the shared query handler layer over a
	// snapshot cache (nil selects a private default cache).
	NewQueryService = serve.NewService
	// NewRegistryService builds the query handler layer over an existing
	// snapshot/session registry.
	NewRegistryService = serve.NewRegistryService
	// NewRegistry builds a snapshot/session registry over a snapshot
	// cache (nil selects a private default cache).
	NewRegistry = core.NewRegistry
	// WithSessionTTL sets the idle lifetime of registry sessions.
	WithSessionTTL = core.WithSessionTTL
	// WithSessionLimit caps concurrently live sessions per registry.
	WithSessionLimit = core.WithSessionLimit
	// NewSession opens an unregistered what-if session over a query
	// processor: zooms and applied deletions land in the session's
	// copy-on-write overlay, never in the processor's graph.
	NewSession = core.NewSession
	// NewOverlay opens a copy-on-write view over an immutable base graph
	// (sessions do this internally; exposed for library use).
	NewOverlay = provgraph.NewOverlay
	// Read builds a query processor from a snapshot stream.
	Read = core.Read
	// FromTracker builds a query processor over a live tracker.
	FromTracker = core.FromTracker
	// NewQueryProcessor wraps an already-loaded snapshot.
	NewQueryProcessor = core.NewQueryProcessor

	// WithEventSink streams a run's provenance capture: every graph
	// mutation is reported as a typed Event in deterministic order.
	WithEventSink = workflow.WithEventSink
	// NewEventLog returns an empty concurrency-safe event buffer.
	NewEventLog = provgraph.NewEventLog
	// Replay reconstructs a graph from a captured event stream,
	// event-for-event identical to the source build.
	Replay = provgraph.Replay
	// ApplyEvent applies one captured event to a graph, validating ids
	// and sequencing.
	ApplyEvent = provgraph.Apply
	// NewLiveGraph returns an empty in-memory live graph.
	NewLiveGraph = core.NewLiveGraph
	// OpenLiveGraph opens a durable live graph over a write-ahead-log
	// directory, recovering checkpoint + tail state.
	OpenLiveGraph = core.OpenLiveGraph
	// WithCheckpointEvery sets a durable live graph's automatic
	// checkpoint interval in events.
	WithCheckpointEvery = core.WithCheckpointEvery
	// WithIngestQueueDepth bounds a live graph's in-flight ingest
	// batches; past the bound, appends are shed with *OverloadedError.
	WithIngestQueueDepth = core.WithIngestQueueDepth
	// WithLogOptions forwards WAL options (fsync policy, segment size,
	// group-commit tuning) to a durable live graph.
	WithLogOptions = core.WithLogOptions
	// WithGroupCommit caps the bytes of one coalesced write + fsync of
	// the WAL's group committer, its only write path. The committer
	// commits whatever is queued as soon as it is free, so a lone batch
	// never waits for company; the maxDelay argument is ignored.
	WithGroupCommit = store.WithGroupCommit
	// WithFsync controls whether WAL commits fsync (default true).
	WithFsync = store.WithFsync
	// WithLiveDir makes a Registry's live graphs durable under a
	// directory (one WAL per stream).
	WithLiveDir = core.WithLiveDir
	// NewIngestClient returns a streaming client for one named stream on
	// one lipstick server.
	NewIngestClient = serve.NewIngestClient
	// Ingest posts one event batch to a lipstick server.
	Ingest = serve.Ingest
	// EncodeEventBatch frames events in the binary ingest wire format.
	EncodeEventBatch = store.EncodeEventBatch
	// DecodeEventBatch reads one encoded event batch.
	DecodeEventBatch = store.DecodeEventBatch
)

// Provenance graph model (Section 3).
type (
	// Graph is the provenance graph.
	Graph = provgraph.Graph
	// Node is one provenance-graph node.
	Node = provgraph.Node
	// NodeID identifies a node within a graph.
	NodeID = provgraph.NodeID
	// DeletionResult reports what a deletion propagation removed.
	DeletionResult = provgraph.DeletionResult
	// SubgraphResult is the output of a subgraph query.
	SubgraphResult = provgraph.SubgraphResult
	// ZoomRecord lets ZoomIn undo a ZoomOut exactly.
	ZoomRecord = provgraph.ZoomRecord
)

// Node classification re-exports.
const (
	// ClassP marks provenance nodes; ClassV marks value nodes.
	ClassP = provgraph.ClassP
	ClassV = provgraph.ClassV

	// Node types of Section 3.
	TypeWorkflowInput = provgraph.TypeWorkflowInput
	TypeInvocation    = provgraph.TypeInvocation
	TypeModuleInput   = provgraph.TypeModuleInput
	TypeModuleOutput  = provgraph.TypeModuleOutput
	TypeState         = provgraph.TypeState
	TypeBaseTuple     = provgraph.TypeBaseTuple
	TypeOp            = provgraph.TypeOp
	TypeValue         = provgraph.TypeValue
	TypeZoom          = provgraph.TypeZoom

	// Operation labels.
	OpPlus   = provgraph.OpPlus
	OpTimes  = provgraph.OpTimes
	OpDelta  = provgraph.OpDelta
	OpTensor = provgraph.OpTensor
	OpAgg    = provgraph.OpAgg
	OpBB     = provgraph.OpBB
)

// InvalidNode is returned by lookups that find nothing.
const InvalidNode = provgraph.InvalidNode
