package store

import "lipstick/internal/provgraph"

// Postings is the read interface over a snapshot's selection index: for
// each node type, operation label, node label, and module it lists the
// matching node slots in ascending id order, plus the invocation ids of
// each module. The Provenance Tracker computes it at track (write) time so
// the Query Processor can answer selection queries without rescanning the
// graph after load (the ProvDB-style "persist the index with the graph"
// step on top of Section 5.1's load-and-build pipeline).
//
// It is implemented by colPostings, which serves lookups straight from the
// (possibly mapped) sections of a v3 snapshot, or from the same columns
// built in memory by BuildPostings; the live index in package core layers
// its appends over one. Postings cover every node slot — dead ones
// included — because graph transformations flip liveness at query time;
// readers filter on Graph.Alive. Returned slices are shared — callers must
// not mutate them.
type Postings interface {
	// Coverage is the number of node slots the postings cover; slots with
	// ids >= Coverage were appended after the index was built and must be
	// scanned separately.
	Coverage() int
	TypeIDs(provgraph.Type) []provgraph.NodeID
	OpIDs(provgraph.Op) []provgraph.NodeID
	LabelIDs(string) []provgraph.NodeID
	ModuleIDs(string) []provgraph.NodeID
	ModuleInvocations(string) []provgraph.InvID
}
