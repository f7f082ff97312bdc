// Package core implements the Lipstick system of Section 5.1: the
// Provenance Tracker, which executes workflows while constructing
// fine-grained provenance and writes provenance-annotated tuples plus the
// provenance graph to the filesystem, and the Query Processor, which loads
// that output, rebuilds the graph in memory, and answers zoom, deletion,
// subgraph, and dependency queries (Section 4).
package core

import (
	"io"
	"maps"
	"sort"
	"sync"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
)

// Tracker is the Provenance Tracker sub-system: it drives workflow
// executions and accumulates the annotated outputs for persistence.
type Tracker struct {
	runner     *workflow.Runner
	executions []*workflow.Execution
}

// NewTracker validates the workflow and prepares tracking at the given
// granularity.
func NewTracker(w *workflow.Workflow, gran workflow.Granularity, opts ...workflow.Option) (*Tracker, error) {
	runner, err := workflow.NewRunner(w, gran, opts...)
	if err != nil {
		return nil, err
	}
	return &Tracker{runner: runner}, nil
}

// Runner exposes the underlying workflow runner (state seeding etc.).
func (t *Tracker) Runner() *workflow.Runner { return t.runner }

// Execute runs one workflow execution and records its outputs.
func (t *Tracker) Execute(inputs workflow.Inputs) (*workflow.Execution, error) {
	exec, err := t.runner.Execute(inputs)
	if err != nil {
		return nil, err
	}
	t.executions = append(t.executions, exec)
	return exec, nil
}

// Executions returns the executions recorded so far.
func (t *Tracker) Executions() []*workflow.Execution { return t.executions }

// Snapshot assembles the tracker's persistent output: the provenance graph
// and every execution's annotated output relations.
func (t *Tracker) Snapshot() *store.Snapshot {
	snap := &store.Snapshot{Graph: t.runner.Graph()}
	if snap.Graph == nil {
		snap.Graph = provgraph.New() // plain runs persist an empty graph
	}
	for _, e := range t.executions {
		nodes := make([]string, 0, len(e.Outputs))
		for node := range e.Outputs {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			rels := e.Outputs[node]
			names := make([]string, 0, len(rels))
			for rel := range rels {
				names = append(names, rel)
			}
			sort.Strings(names)
			for _, rel := range names {
				dump := store.RelationDump{Execution: e.Index, Node: node, Relation: rel}
				for _, tup := range rels[rel].Tuples {
					dump.Tuples = append(dump.Tuples, store.AnnotatedTuple{
						Tuple: tup.Tuple, Prov: tup.Prov, Mult: tup.Mult,
					})
				}
				snap.Outputs = append(snap.Outputs, dump)
			}
		}
	}
	return snap
}

// Save persists the tracker's output to the given path (the paper: "the
// sub-system output is written to the file-system, and is used as input by
// the Query Processor").
func (t *Tracker) Save(path string) error {
	return store.Save(path, t.Snapshot())
}

// WriteSnapshot streams the snapshot to a writer.
func (t *Tracker) WriteSnapshot(w io.Writer) error {
	return store.Write(w, t.Snapshot())
}

// QueryProcessor is the in-memory, read-only query sub-system over a
// provenance graph: node selection, what-if deletion propagation
// (Section 4.2), and subgraph/dependency queries (Sections 4.3, 5.1).
// It has no mutating method, so one processor can be shared by every
// reader; zoom (Section 4.1) and applied deletions go through a Session,
// a copy-on-write overlay over the processor's graph.
type QueryProcessor struct {
	graph *provgraph.Graph
	index *Index

	// outputs is populated eagerly for buffered snapshots; mapped (v3)
	// opens defer the decode behind outputsFn until the first accessor
	// needs it, so opening a snapshot decodes nothing per tuple.
	outputs     []store.RelationDump
	outputsFn   func() ([]store.RelationDump, error)
	outputsOnce sync.Once
	outputsErr  error

	// stats is the graph's, walked by the first Stats call. A processor
	// answers for its graph as it was created, as its postings do: a
	// snapshot's, a live graph's published view, or a tracker's graph
	// at FromTracker.
	statsOnce sync.Once
	stats     provgraph.Stats
}

// Load opens a tracker snapshot from disk and builds the in-memory graph.
// Columnar (v3) snapshots are memory-mapped where the platform allows it,
// so the open decodes nothing per node; legacy v1/v2 files decode fully.
func Load(path string) (*QueryProcessor, error) {
	snap, err := store.LoadMapped(path)
	if err != nil {
		return nil, err
	}
	return NewQueryProcessor(snap), nil
}

// Read builds a query processor from a snapshot stream.
func Read(r io.Reader) (*QueryProcessor, error) {
	snap, err := store.Read(r)
	if err != nil {
		return nil, err
	}
	return NewQueryProcessor(snap), nil
}

// NewQueryProcessor wraps an already-loaded snapshot. A snapshot read
// from a file contributes its postings; for one assembled in memory the
// postings are built from the graph here, once, instead of rescanning per
// query.
func NewQueryProcessor(snap *store.Snapshot) *QueryProcessor {
	return &QueryProcessor{
		graph:     snap.Graph,
		outputs:   snap.Outputs,
		outputsFn: snap.LazyOutputs,
		index:     newIndex(snap),
	}
}

// Index exposes the processor's postings index (module→invocation lookups
// and coverage introspection).
func (qp *QueryProcessor) Index() *Index { return qp.index }

// FromTracker builds a query processor directly over a tracker's live
// graph (without a round-trip through the filesystem).
func FromTracker(t *Tracker) *QueryProcessor {
	return NewQueryProcessor(t.Snapshot())
}

// Graph exposes the in-memory provenance graph.
func (qp *QueryProcessor) Graph() *provgraph.Graph { return qp.graph }

// Stats summarizes the processor's graph. The graph is walked once, on
// the first call; each call gets a ByType map of its own.
func (qp *QueryProcessor) Stats() provgraph.Stats {
	qp.statsOnce.Do(func() { qp.stats = qp.graph.ComputeStats() })
	st := qp.stats
	st.ByType = maps.Clone(st.ByType)
	return st
}

// Outputs returns the annotated output relations recorded by the tracker,
// decoding them on first use for mapped snapshots. A section that fails
// to decode (a corrupted mapped file) answers its decode error on every
// call.
func (qp *QueryProcessor) Outputs() ([]store.RelationDump, error) {
	qp.outputsOnce.Do(func() {
		if qp.outputsFn == nil {
			return
		}
		qp.outputs, qp.outputsErr = qp.outputsFn()
		qp.outputsFn = nil
	})
	return qp.outputs, qp.outputsErr
}

// Output finds one recorded relation by execution, node and relation
// name. ok is false when no such relation was recorded; an outputs
// section that failed to decode answers its error instead.
func (qp *QueryProcessor) Output(execution int, node, rel string) (d *store.RelationDump, ok bool, err error) {
	outs, err := qp.Outputs()
	if err != nil {
		return nil, false, err
	}
	for i := range outs {
		d := &outs[i]
		if d.Execution == execution && d.Node == node && d.Relation == rel {
			return d, true, nil
		}
	}
	return nil, false, nil
}

// FindOutputTuple locates the provenance node of an output tuple by
// value. ok is false when no recorded output holds the tuple; an outputs
// section that failed to decode answers its error instead.
func (qp *QueryProcessor) FindOutputTuple(node, rel string, tuple *nested.Tuple) (id provgraph.NodeID, ok bool, err error) {
	outs, err := qp.Outputs()
	if err != nil {
		return provgraph.InvalidNode, false, err
	}
	for _, d := range outs {
		if d.Node != node || d.Relation != rel {
			continue
		}
		for _, t := range d.Tuples {
			if t.Tuple.Equal(tuple) {
				return t.Prov, true, nil
			}
		}
	}
	return provgraph.InvalidNode, false, nil
}

// Subgraph answers the subgraph query of Section 5.1.
func (qp *QueryProcessor) Subgraph(id provgraph.NodeID) *provgraph.SubgraphResult {
	return qp.graph.Subgraph(id)
}

// WhatIfDelete computes the effect of deleting the given nodes without
// modifying the graph (Section 4.2's analysis reading).
func (qp *QueryProcessor) WhatIfDelete(ids ...provgraph.NodeID) *provgraph.DeletionResult {
	return qp.graph.PropagateDeletion(ids...)
}

// DependsOn answers the dependency query of Section 4.3: does the
// existence of a depend on the existence of b?
func (qp *QueryProcessor) DependsOn(a, b provgraph.NodeID) bool {
	return qp.graph.DependsOn(a, b)
}
