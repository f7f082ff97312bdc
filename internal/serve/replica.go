package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lipstick/internal/core"
	"lipstick/internal/store"
)

// Replication surface of the server. A primary exposes, per durable live
// graph:
//
//	GET /v1/replica/{name}/status            durable position + checkpoint seq
//	GET /v1/replica/{name}/events?from=N     binary event batch (catchup tail)
//	GET /v1/replica/{name}/checkpoint        newest checkpoint file (bootstrap)
//
// A follower (serve -follow) runs the same process in follower mode: it
// applies the primary's stream into its own live graphs and serves every
// read endpoint from published views, but rejects direct ingestion —
// writes belong to the primary until promotion. Live reads on a follower
// carry an X-Lipstick-Replica-Lag header (events behind the primary), and
// /v1/stats reports replicationLagSeq/replicationLagMs gauges.

// ReplicaLag describes how far one followed stream trails its primary.
type ReplicaLag struct {
	// PrimarySeq is the primary's last advertised durable sequence;
	// AppliedSeq is what this follower has applied locally.
	PrimarySeq uint64 `json:"primarySeq"`
	AppliedSeq uint64 `json:"appliedSeq"`
	// LagSeq = PrimarySeq - AppliedSeq; LagMs is the age of the last
	// successful poll of the primary (freshness of PrimarySeq itself).
	LagSeq uint64 `json:"replicationLagSeq"`
	LagMs  int64  `json:"replicationLagMs"`
	// State is the follower's health view of the stream: "tailing"
	// (caught up), "catching-up" (applying a backlog), or "unreachable"
	// (consecutive primary polls failed — the primary is likely gone).
	State string `json:"state,omitempty"`
	// Unreachable mirrors State == "unreachable"; aggregations exclude
	// such streams from the LagMs maxima, which would otherwise read as
	// ever-growing lag for a dead primary.
	Unreachable bool `json:"unreachable,omitempty"`
}

// ReplicaLagFunc reports the replication lag of one followed stream; ok
// is false for streams this process does not follow.
type ReplicaLagFunc func(name string) (ReplicaLag, bool)

// replicaState is the Service's runtime replication role. Promotion flips
// the role while requests are in flight, so the fields are atomics;
// roleMu serializes whole role transitions (promote/demote), which span
// several of them plus the hooks.
type replicaState struct {
	primary atomic.Pointer[string]         // published via primary; non-nil = follower mode
	lagFn   atomic.Pointer[ReplicaLagFunc] // published via lagFn
	// generation is the node's fencing epoch: writes stamped with a
	// different generation are rejected (see fenceCheck). Persisted to
	// <liveDir>/GENERATION so a restarted ex-primary stays fenced.
	generation  atomic.Uint64                      // published via generation
	promoteHook atomic.Pointer[func() error]       // published via promoteHook
	demoteHook  atomic.Pointer[func(string) error] // published via demoteHook
	roleMu      sync.Mutex
}

// SetFollower puts the service in follower mode: ingestion and forced
// checkpoints are rejected with *FollowerError (writes belong to the
// primary at primaryURL) until Promote.
func (s *Service) SetFollower(primaryURL string) {
	s.replica.primary.Store(&primaryURL)
}

// Promote clears follower mode: the process accepts writes from here on.
// The caller is responsible for having stopped the follower tail first.
func (s *Service) Promote() {
	s.replica.primary.Store(nil)
}

// FollowerPrimary returns the followed primary's URL and whether the
// service is in follower mode.
func (s *Service) FollowerPrimary() (string, bool) {
	p := s.replica.primary.Load()
	if p == nil {
		return "", false
	}
	return *p, true
}

// SetReplicationLag installs the per-stream lag reporter (the replica
// manager's view); live reads and /v1/stats advertise it.
func (s *Service) SetReplicationLag(fn ReplicaLagFunc) {
	s.replica.lagFn.Store(&fn)
}

// replicaLag reports the lag of one followed stream, when known.
func (s *Service) replicaLag(name string) (ReplicaLag, bool) {
	fn := s.replica.lagFn.Load()
	if fn == nil {
		return ReplicaLag{}, false
	}
	return (*fn)(name)
}

// ReplicationStats is the /v1/stats replication section: the follower
// role plus the worst lag across followed streams (expvar mirrors live
// in the replica package).
type ReplicationStats struct {
	Follower bool   `json:"follower"`
	Primary  string `json:"primary,omitempty"`
	// Generation is the node's fencing epoch (bumped by promotion).
	Generation uint64 `json:"generation"`
	// LagSeq / LagMs are the maxima across reachable followed streams:
	// events behind the primary, and the age of the freshest primary
	// poll. Streams whose primary stopped answering are excluded (their
	// poll age grows without bound) and counted in Unreachable instead.
	LagSeq uint64 `json:"replicationLagSeq"`
	LagMs  int64  `json:"replicationLagMs"`
	// Unreachable counts followed streams whose primary is gone; States
	// maps each followed stream to its health state.
	Unreachable int               `json:"unreachableStreams,omitempty"`
	States      map[string]string `json:"streamStates,omitempty"`
}

// replicationStats summarizes the replication role for Stats; nil when
// the process neither follows nor reports lag.
func (s *Service) replicationStats() *ReplicationStats {
	primary, follower := s.FollowerPrimary()
	fn := s.replica.lagFn.Load()
	if !follower && fn == nil {
		return nil
	}
	res := &ReplicationStats{Follower: follower, Primary: primary, Generation: s.Generation()}
	if fn != nil {
		for _, lg := range s.reg.LiveGraphs() {
			lag, ok := (*fn)(lg.Name())
			if !ok {
				continue
			}
			if lag.State != "" {
				if res.States == nil {
					res.States = map[string]string{}
				}
				res.States[lg.Name()] = lag.State
			}
			if lag.Unreachable {
				res.Unreachable++
				continue
			}
			if lag.LagSeq > res.LagSeq {
				res.LagSeq = lag.LagSeq
			}
			if lag.LagMs > res.LagMs {
				res.LagMs = lag.LagMs
			}
		}
	}
	return res
}

// FollowerError rejects a write addressed to a follower.
type FollowerError struct {
	// Primary is where writes belong.
	Primary string
}

// Error implements error.
func (e *FollowerError) Error() string {
	return fmt.Sprintf("lipstick: this server is a follower; send writes to the primary at %s", e.Primary)
}

// rejectFollowerWrite returns the rejection when the service is in
// follower mode.
func (s *Service) rejectFollowerWrite() error {
	if primary, ok := s.FollowerPrimary(); ok {
		return &FollowerError{Primary: primary}
	}
	return nil
}

// ReplicaStatusResult is the /v1/replica/{name}/status payload.
type ReplicaStatusResult struct {
	Name string `json:"name"`
	// Seq is the last durable sequence — the upper bound of what
	// /events will serve. AppliedSeq is the in-memory position (it can
	// run ahead of Seq while a group commit is in flight).
	Seq           uint64 `json:"seq"`
	AppliedSeq    uint64 `json:"appliedSeq"`
	CheckpointSeq uint64 `json:"checkpointSeq"`
	// Generation is the serving node's fencing epoch: a follower tailing
	// a primary whose generation fell behind its own is tailing a zombie.
	Generation uint64 `json:"generation"`
}

// ReplicaStatus reports a durable live graph's replication positions.
func (s *Service) ReplicaStatus(name string) (*ReplicaStatusResult, error) {
	lg, err := s.reg.LiveGraph(name)
	if err != nil {
		return nil, err
	}
	durable, err := lg.DurableSeq()
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	return &ReplicaStatusResult{
		Name: name, Seq: durable, AppliedSeq: lg.Seq(), CheckpointSeq: lg.CheckpointSeq(),
		Generation: s.Generation(),
	}, nil
}

// defaultReplicaBatch caps one /events response when the follower does
// not ask for a bound.
const defaultReplicaBatch = 4096

// replicaRoutes wires the replication endpoints. The events and
// checkpoint responses are binary (event-batch framing / raw LPSK), so
// they bypass the JSON handle helper.
func (s *Service) replicaRoutes(mux *http.ServeMux, handle func(pattern string, fn func(r *http.Request) (any, error))) {
	handle("GET /v1/replica/{name}/status", func(r *http.Request) (any, error) {
		return s.ReplicaStatus(r.PathValue("name"))
	})

	mux.HandleFunc("GET /v1/replica/{name}/events", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		lg, err := s.reg.LiveGraph(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		q := r.URL.Query()
		from, err := strconv.ParseUint(q.Get("from"), 10, 64)
		if err != nil || from == 0 {
			writeErr(w, badRequestf("replica events: 'from' must be a sequence >= 1, got %q", q.Get("from")))
			return
		}
		max := defaultReplicaBatch
		if ms := q.Get("max"); ms != "" {
			m, merr := strconv.Atoi(ms)
			if merr != nil || m <= 0 {
				writeErr(w, badRequestf("replica events: invalid max %q", ms))
				return
			}
			max = m
		}
		events, err := lg.DurableEventsSince(from-1, max)
		if err != nil {
			var compacted *store.CompactedError
			if errors.As(err, &compacted) {
				// 410 Gone: the suffix was checkpointed away; the follower
				// re-seeds from /checkpoint.
				writeJSON(w, http.StatusGone, map[string]any{
					"error": err.Error(), "kind": "compacted",
					"name": name, "checkpointSeq": compacted.CheckpointSeq,
				})
				return
			}
			var notDurable *core.NotDurableError
			if errors.As(err, &notDurable) {
				err = badRequestf("%v", err)
			}
			writeErr(w, err)
			return
		}
		durable, _ := lg.DurableSeq() // DurableEventsSince succeeded, so the log exists
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Lipstick-Seq", strconv.FormatUint(durable, 10))
		if err := store.EncodeEventBatch(w, from, events); err != nil {
			// Headers are gone; the follower's batch decode fails and it
			// retries. Nothing useful left to write.
			return
		}
	})

	mux.HandleFunc("GET /v1/replica/{name}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		lg, err := s.reg.LiveGraph(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		path, seq, ok, err := lg.CheckpointFile()
		if err != nil {
			writeErr(w, badRequestf("%v", err))
			return
		}
		if !ok {
			writeErr(w, &core.NotFoundError{Kind: "checkpoint", Name: name})
			return
		}
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				// Compacted between CheckpointFile and Open: a newer
				// checkpoint replaced it. The follower just asks again.
				writeErr(w, &core.NotFoundError{Kind: "checkpoint", Name: name})
				return
			}
			writeErr(w, err)
			return
		}
		defer func() { _ = f.Close() }() // opened read-only
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Lipstick-Checkpoint-Seq", strconv.FormatUint(seq, 10))
		_, _ = io.Copy(w, f) // a broken pipe mid-copy is the client's problem
	})
}

// Generation fencing. Every node carries a monotonic generation (epoch)
// token, persisted under its live directory. The failover coordinator
// promotes a follower with generation G+1; from then on the proxy stamps
// writes with X-Lipstick-Generation, so a zombie ex-primary that rejoins
// at the old generation rejects nothing silently: a stamped write hits
// it with a NEWER generation, which is proof positive it was replaced —
// it answers with a structured 409 ("fenced") and demotes itself to
// follower of the primary named in X-Lipstick-Primary. Symmetrically, a
// write stamped with an OLDER generation (a stale proxy) is rejected
// without a role change.

// generationFile is the per-node epoch persisted in the live directory.
const generationFile = "GENERATION"

// headers carrying the fencing epoch on proxied writes.
const (
	GenerationHeader = "X-Lipstick-Generation"
	PrimaryHeader    = "X-Lipstick-Primary"
)

// FencedError rejects a write whose generation token does not match the
// node's epoch — either side may be the zombie; the payload says which.
type FencedError struct {
	NodeGeneration    uint64
	RequestGeneration uint64
}

// Error implements error.
func (e *FencedError) Error() string {
	if e.RequestGeneration > e.NodeGeneration {
		return fmt.Sprintf("lipstick: this node is fenced: a newer generation %d exists (node is at %d)",
			e.RequestGeneration, e.NodeGeneration)
	}
	return fmt.Sprintf("lipstick: stale generation %d rejected (node is at %d)",
		e.RequestGeneration, e.NodeGeneration)
}

// Generation returns the node's fencing epoch (1 for a fresh node).
func (s *Service) Generation() uint64 {
	return s.replica.generation.Load()
}

// initGeneration loads the persisted epoch (default 1). Constructors
// call it; an unreadable file degrades to the default — the node then
// fences on the first stamped write, which is the safe direction.
func (s *Service) initGeneration() {
	gen := uint64(1)
	if dir := s.reg.LiveDir(); dir != "" {
		if raw, err := os.ReadFile(filepath.Join(dir, generationFile)); err == nil {
			if g, perr := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64); perr == nil && g > 0 {
				gen = g
			}
		}
	}
	s.replica.generation.Store(gen)
}

// storeGeneration adopts and persists a new epoch.
func (s *Service) storeGeneration(gen uint64) error {
	s.replica.generation.Store(gen)
	dir := s.reg.LiveDir()
	if dir == "" {
		return nil // in-memory node: the epoch lives and dies with the process
	}
	path := filepath.Join(dir, generationFile)
	tmp := path + ".tmp"
	if err := writeSynced(tmp, []byte(strconv.FormatUint(gen, 10)+"\n")); err != nil {
		return fmt.Errorf("lipstick: persisting generation: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("lipstick: persisting generation: %w", err)
	}
	if err := store.SyncDir(dir); err != nil {
		return fmt.Errorf("lipstick: persisting generation: %w", err)
	}
	return nil
}

// writeSynced writes data to a new file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SetPromoteHook installs the step a promotion runs before the role
// flips — the server wires the replica manager's Promote (stop tailing,
// deregister) here.
func (s *Service) SetPromoteHook(fn func() error) {
	s.replica.promoteHook.Store(&fn)
}

// SetDemoteHook installs the step a demotion runs before follower mode
// engages — the server wires "start a replica manager against the new
// primary" here.
func (s *Service) SetDemoteHook(fn func(primary string) error) {
	s.replica.demoteHook.Store(&fn)
}

// PromoteResult is the POST /v1/promote payload: the adopted generation
// and the durable position of every local stream at promotion time.
type PromoteResult struct {
	Generation uint64           `json:"generation"`
	Promoted   bool             `json:"promoted"`
	Streams    []StreamPosition `json:"streams,omitempty"`
}

// StreamPosition is one stream's applied position.
type StreamPosition struct {
	Name string `json:"name"`
	Seq  uint64 `json:"seq"`
}

// PromoteToPrimary adopts generation gen and, if the node is a
// follower, stops the tail (promote hook) and starts accepting writes.
// gen must exceed the node's epoch — equal or lower is fenced, which
// makes promotion idempotent-safe: a duplicate request loses.
func (s *Service) PromoteToPrimary(gen uint64) (*PromoteResult, error) {
	s.replica.roleMu.Lock()
	defer s.replica.roleMu.Unlock()
	cur := s.Generation()
	if gen <= cur {
		return nil, &FencedError{NodeGeneration: cur, RequestGeneration: gen}
	}
	if _, follower := s.FollowerPrimary(); follower {
		if hook := s.replica.promoteHook.Load(); hook != nil {
			if err := (*hook)(); err != nil {
				return nil, fmt.Errorf("lipstick: promote hook: %w", err)
			}
		}
		s.Promote()
	}
	if err := s.storeGeneration(gen); err != nil {
		return nil, err
	}
	res := &PromoteResult{Generation: gen, Promoted: true}
	for _, lg := range s.reg.LiveGraphs() {
		res.Streams = append(res.Streams, StreamPosition{Name: lg.Name(), Seq: lg.Seq()})
	}
	return res, nil
}

// DemoteResult is the POST /v1/demote payload.
type DemoteResult struct {
	Generation uint64 `json:"generation"`
	Primary    string `json:"primary"`
}

// DemoteToFollower fences the node at generation gen and turns it into
// a follower of primary — how a zombie ex-primary rejoins the cluster.
// gen below the node's epoch is fenced (a stale coordinator must not
// demote a newer primary).
func (s *Service) DemoteToFollower(primary string, gen uint64) (*DemoteResult, error) {
	if primary == "" {
		return nil, badRequestf("demote: a primary URL is required")
	}
	s.replica.roleMu.Lock()
	defer s.replica.roleMu.Unlock()
	cur := s.Generation()
	if gen < cur {
		return nil, &FencedError{NodeGeneration: cur, RequestGeneration: gen}
	}
	if p, follower := s.FollowerPrimary(); !follower || p != primary {
		if hook := s.replica.demoteHook.Load(); hook != nil {
			if err := (*hook)(primary); err != nil {
				return nil, fmt.Errorf("lipstick: demote hook: %w", err)
			}
		}
		s.SetFollower(primary)
	}
	if gen > cur {
		if err := s.storeGeneration(gen); err != nil {
			return nil, err
		}
	}
	return &DemoteResult{Generation: s.Generation(), Primary: primary}, nil
}

// fenceCheck guards a write endpoint: an unstamped request passes (a
// direct client of a single node), a matching generation passes, and a
// mismatch is a structured 409. A request carrying a NEWER generation
// additionally proves this node was replaced while it was away — it
// demotes itself to follower of the named new primary before rejecting.
func (s *Service) fenceCheck(r *http.Request) error {
	h := r.Header.Get(GenerationHeader)
	if h == "" {
		return nil
	}
	gen, err := strconv.ParseUint(h, 10, 64)
	if err != nil || gen == 0 {
		return badRequestf("bad %s header %q", GenerationHeader, h)
	}
	cur := s.Generation()
	if gen == cur {
		return nil
	}
	if gen > cur {
		if primary := r.Header.Get(PrimaryHeader); primary != "" {
			// Self-demotion may fail (hook error); the write is rejected
			// either way, and the next stamped write retries the demotion.
			_, _ = s.DemoteToFollower(primary, gen)
		}
	}
	return &FencedError{NodeGeneration: cur, RequestGeneration: gen}
}
