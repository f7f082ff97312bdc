package core

import (
	"fmt"

	"lipstick/internal/provgraph"
)

// NotFoundError reports a lookup of a name the registry does not know —
// an unregistered snapshot name or an unknown/expired session id. The
// serving layer maps it to a structured 404.
type NotFoundError struct {
	// Kind is the namespace the lookup missed: "snapshot" or "session".
	Kind string
	// Name is the name or id that was looked up.
	Name string
}

// Error implements error.
func (e *NotFoundError) Error() string { return fmt.Sprintf("unknown %s %q", e.Kind, e.Name) }

func unknownSnapshot(name string) error { return &NotFoundError{Kind: "snapshot", Name: name} }
func unknownSession(id string) error    { return &NotFoundError{Kind: "session", Name: id} }

// NameError reports an unusable registry name: malformed, or already
// taken by the other kind of entry (static snapshot vs live graph). The
// serving layer maps it to a 400 — it is the caller's argument that is
// wrong, not the server.
type NameError struct {
	Name   string
	Reason string
}

// Error implements error.
func (e *NameError) Error() string {
	return fmt.Sprintf("lipstick: invalid snapshot name %q: %s", e.Name, e.Reason)
}

// OverloadedError reports an ingest batch rejected by admission control:
// the live graph's bounded queue of in-flight batches is full, so instead
// of growing memory without bound the server sheds the request. The
// serving layer maps it to HTTP 429 with a Retry-After hint; senders
// (IngestClient) retry with backoff and lose nothing — ingestion is
// idempotent by sequence number.
type OverloadedError struct {
	// Name is the live graph whose queue is full.
	Name string
	// Depth is the configured queue depth.
	Depth int
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("lipstick: ingest queue of %q is full (depth %d); retry with backoff", e.Name, e.Depth)
}

// NodeRangeError reports a node id outside a session view's slot range.
// The serving layer maps it to a 400.
type NodeRangeError struct {
	ID    provgraph.NodeID
	Total int
}

// Error implements error.
func (e *NodeRangeError) Error() string {
	return fmt.Sprintf("invalid node id %d (session view has %d nodes)", e.ID, e.Total)
}
