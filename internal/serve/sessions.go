package serve

import (
	"time"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
)

// This file is the transport-agnostic session and registry surface: list
// named snapshots, open copy-on-write mutation sessions over them, and
// apply zoom/delete transformations to a session's overlay. Session-scoped
// reads run the snapshot routes' bodies through core.Session.Read (see
// http.go). The HTTP layer and any future transport are thin callers.

// SnapshotsResult lists the registered snapshots.
type SnapshotsResult struct {
	Count     int                 `json:"count"`
	Snapshots []core.SnapshotInfo `json:"snapshots"`
}

// Snapshots lists the snapshot names the registry serves.
func (s *Service) Snapshots() *SnapshotsResult {
	snaps := s.reg.Snapshots()
	return &SnapshotsResult{Count: len(snaps), Snapshots: snaps}
}

// SessionResult describes one mutation session.
type SessionResult struct {
	ID       string    `json:"id"`
	Snapshot string    `json:"snapshot"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"lastUsed"`
	// Nodes is the live node count of the session's view (changes as the
	// session zooms and deletes).
	Nodes int `json:"nodes"`
	// Changes is the session's recorded delta count — its memory cost.
	Changes int `json:"changes"`
	// ZoomedOut lists the currently zoomed-out modules.
	ZoomedOut []string `json:"zoomedOut"`
}

func sessionResult(sess *core.Session) *SessionResult {
	r := &SessionResult{
		ID:        sess.ID(),
		Snapshot:  sess.SnapshotName(),
		Created:   sess.Created(),
		LastUsed:  sess.LastUsed(),
		Nodes:     sess.NumNodes(),
		Changes:   sess.Changes(),
		ZoomedOut: sess.ZoomedOut(),
	}
	if r.ZoomedOut == nil {
		r.ZoomedOut = []string{}
	}
	return r
}

// CreateSession opens a mutation session over a registered snapshot.
func (s *Service) CreateSession(snapshot string) (*SessionResult, error) {
	if snapshot == "" {
		return nil, badRequestf("sessions: a snapshot name is required")
	}
	sess, err := s.reg.CreateSession(snapshot)
	if err != nil {
		return nil, err
	}
	return sessionResult(sess), nil
}

// SessionsResult lists the live sessions.
type SessionsResult struct {
	Count    int              `json:"count"`
	Sessions []*SessionResult `json:"sessions"`
}

// Sessions lists the live (unexpired) sessions, most recent first.
func (s *Service) Sessions() *SessionsResult {
	live := s.reg.Sessions()
	out := &SessionsResult{Count: len(live), Sessions: make([]*SessionResult, 0, len(live))}
	for _, sess := range live {
		out.Sessions = append(out.Sessions, sessionResult(sess))
	}
	return out
}

// SessionInfo describes one session by id.
func (s *Service) SessionInfo(id string) (*SessionResult, error) {
	sess, err := s.reg.Session(id)
	if err != nil {
		return nil, err
	}
	return sessionResult(sess), nil
}

// CloseSession discards a session.
func (s *Service) CloseSession(id string) error {
	return s.reg.CloseSession(id)
}

// SessionZoomRequest applies a zoom transformation to a session: zoom
// out the given modules, or (with In) undo the most recent zoom-out.
type SessionZoomRequest struct {
	Modules []string `json:"modules"`
	In      bool     `json:"in"`
}

// SessionZoomResult reports a session zoom transformation.
type SessionZoomResult struct {
	Session     string   `json:"session"`
	Action      string   `json:"action"` // "out" or "in"
	Modules     []string `json:"modules"`
	NodesAfter  int      `json:"nodesAfter"`
	HiddenNodes int      `json:"hiddenNodes"`
	ZoomNodes   int      `json:"zoomNodes"`
	ZoomedOut   []string `json:"zoomedOut"`
}

// SessionZoom applies zoom-out/zoom-in to the session's overlay.
func (s *Service) SessionZoom(id string, req SessionZoomRequest) (*SessionZoomResult, error) {
	sess, err := s.reg.Session(id)
	if err != nil {
		return nil, err
	}
	if req.In && len(req.Modules) > 0 {
		return nil, badRequestf("zoom: cannot combine \"in\" with modules")
	}
	var rec *provgraph.ZoomRecord
	action := "out"
	if req.In {
		action = "in"
		rec, err = sess.ZoomIn()
	} else {
		rec, err = sess.ZoomOut(req.Modules...)
	}
	if err != nil {
		return nil, badRequestf("zoom: %v", err)
	}
	res := &SessionZoomResult{
		Session:     sess.ID(),
		Action:      action,
		Modules:     rec.Modules,
		NodesAfter:  sess.NumNodes(),
		HiddenNodes: rec.HiddenCount(),
		ZoomNodes:   rec.ZoomNodeCount(),
		ZoomedOut:   sess.ZoomedOut(),
	}
	if res.ZoomedOut == nil {
		res.ZoomedOut = []string{}
	}
	return res, nil
}

// SessionDeleteRequest deletes nodes in a session's view, propagating
// per Definition 4.2. With WhatIf the effect is computed but not applied.
type SessionDeleteRequest struct {
	Nodes  []provgraph.NodeID `json:"nodes"`
	WhatIf bool               `json:"whatIf"`
}

// RecomputedAggregateResult is one aggregate whose value changed after
// an applied deletion (Example 4.3).
type RecomputedAggregateResult struct {
	Node      provgraph.NodeID `json:"node"`
	Op        string           `json:"op"`
	Before    string           `json:"before"`
	After     string           `json:"after"`
	Survivors int              `json:"survivors"`
}

// SessionDeleteResult reports a session deletion.
type SessionDeleteResult struct {
	Session      string                      `json:"session"`
	Nodes        []provgraph.NodeID          `json:"nodes"`
	Applied      bool                        `json:"applied"`
	RemovedCount int                         `json:"removedCount"`
	Removed      []RemovedNode               `json:"removed"`
	Recomputed   []RecomputedAggregateResult `json:"recomputedAggregates"`
	NodesAfter   int                         `json:"nodesAfter"`
}

// SessionDelete applies (or previews, with WhatIf) deletion propagation
// in the session's view. Applied deletions also recompute affected
// aggregates. The id check, the deletion and the answer come from one
// session state.
func (s *Service) SessionDelete(id string, req SessionDeleteRequest) (*SessionDeleteResult, error) {
	sess, err := s.reg.Session(id)
	if err != nil {
		return nil, err
	}
	if len(req.Nodes) == 0 {
		return nil, badRequestf("delete: at least one node is required")
	}
	out := &SessionDeleteResult{Session: sess.ID(), Nodes: req.Nodes, Applied: !req.WhatIf}
	err = sess.Delete(req.Nodes, req.WhatIf, func(v core.View, res *provgraph.DeletionResult, recs []provgraph.RecomputedAggregate) {
		out.RemovedCount = res.Size()
		out.Removed = removedOf(v.Graph, res.Removed)
		out.NodesAfter = v.Graph.NumNodes()
		out.Recomputed = make([]RecomputedAggregateResult, 0, len(recs))
		for _, rec := range recs {
			out.Recomputed = append(out.Recomputed, RecomputedAggregateResult{
				Node: rec.Node, Op: rec.Op,
				Before: rec.Before.String(), After: rec.After.String(),
				Survivors: rec.Survivors,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
