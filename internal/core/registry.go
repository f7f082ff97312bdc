package core

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry defaults.
const (
	// DefaultSessionTTL is how long an idle session survives before the
	// registry expires it.
	DefaultSessionTTL = 30 * time.Minute
	// DefaultSessionLimit caps live sessions per registry; creating past
	// the cap evicts the least recently used session.
	DefaultSessionLimit = 1024
)

// Registry names snapshots and manages mutation sessions over them — the
// multi-tenant layer `lipstick serve -dir` exposes. Snapshot names map to
// paths; loading and caching stays with the SnapshotManager underneath,
// so every session and read query against one snapshot shares a single
// loaded, indexed processor. Sessions are copy-on-write (see Session):
// per-session state costs O(changes), which is what lets one process hold
// thousands of concurrent what-if sessions over shared base graphs.
//
// The registry is safe for concurrent use.
type Registry struct {
	mgr        *SnapshotManager
	sessionTTL time.Duration
	maxSess    int
	now        func() time.Time // injectable for expiry tests
	liveDir    string           // WAL root for durable live graphs ("" = in-memory)
	liveOpts   []LiveOption

	mu    sync.Mutex
	snaps map[string]string     // name -> path; guarded by mu
	live  map[string]*LiveGraph // guarded by mu
	// liveOpening marks names whose durable live graph is mid-recovery
	// (opened outside the lock); liveOpened signals completion.
	liveOpening map[string]bool     // guarded by mu
	liveOpened  *sync.Cond          // on mu
	sessions    map[string]*Session // guarded by mu
	seq         uint64              // guarded by mu
}

// RegistryOption configures a Registry.
type RegistryOption func(*Registry)

// WithSessionTTL sets the idle lifetime of sessions (<= 0 disables
// TTL-based expiry; the LRU cap still applies).
func WithSessionTTL(d time.Duration) RegistryOption {
	return func(r *Registry) { r.sessionTTL = d }
}

// WithSessionLimit caps concurrently live sessions (<= 0 selects
// DefaultSessionLimit).
func WithSessionLimit(n int) RegistryOption {
	return func(r *Registry) {
		if n > 0 {
			r.maxSess = n
		}
	}
}

// WithLiveDir makes the registry's live graphs durable: each ingested
// stream gets a write-ahead log under dir/<name>/ (checkpoint + tail
// recovery via RestoreLiveDir). Without it live graphs are in-memory.
func WithLiveDir(dir string) RegistryOption {
	return func(r *Registry) { r.liveDir = dir }
}

// WithLiveOptions forwards options (checkpoint cadence, WAL tuning) to
// live graphs the registry opens.
func WithLiveOptions(opts ...LiveOption) RegistryOption {
	return func(r *Registry) { r.liveOpts = append(r.liveOpts, opts...) }
}

// NewRegistry builds a registry over the given snapshot cache; a nil
// manager gets a private cache of default capacity.
func NewRegistry(mgr *SnapshotManager, opts ...RegistryOption) *Registry {
	if mgr == nil {
		mgr = NewSnapshotManager(0)
	}
	r := &Registry{
		mgr:         mgr,
		sessionTTL:  DefaultSessionTTL,
		maxSess:     DefaultSessionLimit,
		now:         time.Now,
		snaps:       make(map[string]string),
		live:        make(map[string]*LiveGraph),
		liveOpening: make(map[string]bool),
		sessions:    make(map[string]*Session),
	}
	r.liveOpened = sync.NewCond(&r.mu)
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Manager exposes the underlying snapshot cache.
func (r *Registry) Manager() *SnapshotManager { return r.mgr }

// validSnapshotName rejects names that cannot address a registry entry
// (or, for durable live graphs, a directory).
func validSnapshotName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		return &NameError{Name: name, Reason: "must be a single non-empty path segment"}
	}
	return nil
}

// Register names a snapshot path. Re-registering a name with the same
// path is a no-op; a different path is an error (use a distinct name).
func (r *Registry) Register(name, path string) error {
	if err := validSnapshotName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[name]; ok {
		return &NameError{Name: name, Reason: "already taken by a live graph"}
	}
	if r.liveOpening[name] {
		// A live graph of this name is mid-recovery outside the lock;
		// claiming the name now would let both kinds coexist.
		return &NameError{Name: name, Reason: "already being opened as a live graph"}
	}
	if prev, ok := r.snaps[name]; ok && prev != path {
		return &NameError{Name: name, Reason: fmt.Sprintf("already registered for %s", prev)}
	}
	r.snaps[name] = path
	return nil
}

// SnapshotName derives the registry name for a snapshot path: the file's
// base name without its .lpsk extension.
func SnapshotName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".lpsk")
}

// RegisterDir scans dir for *.lpsk files and registers each under its
// base name (without extension). It returns the sorted registered names.
func (r *Registry) RegisterDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lpsk") {
			continue
		}
		name := SnapshotName(e.Name())
		if err := r.Register(name, filepath.Join(dir, e.Name())); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// SnapshotInfo describes one registered snapshot: a static .lpsk file
// (Kind "static") or a live graph under ingestion (Kind "live").
type SnapshotInfo struct {
	Name string `json:"name"`
	Path string `json:"path,omitempty"`
	Kind string `json:"kind"`
	// Events is the live graph's applied event count (live only).
	Events uint64 `json:"events,omitempty"`
	// Durable reports whether a live graph is WAL-backed (live only).
	Durable bool `json:"durable,omitempty"`
}

// Snapshots lists the registered snapshots — static and live — sorted by
// name.
func (r *Registry) Snapshots() []SnapshotInfo {
	r.mu.Lock()
	live := make([]*LiveGraph, 0, len(r.live))
	for _, lg := range r.live {
		live = append(live, lg)
	}
	out := make([]SnapshotInfo, 0, len(r.snaps)+len(live))
	for name, path := range r.snaps {
		out = append(out, SnapshotInfo{Name: name, Path: path, Kind: "static"})
	}
	r.mu.Unlock()
	for _, lg := range live { // Seq takes the graph's own lock; not under r.mu
		out = append(out, SnapshotInfo{
			Name: lg.Name(), Kind: "live", Events: lg.Seq(), Durable: lg.Durable(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NumSnapshots returns the number of registered snapshots (static + live).
func (r *Registry) NumSnapshots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.snaps) + len(r.live)
}

// OpenLive returns the live graph registered under name, creating it on
// first use (durable under the registry's live directory, if configured).
// A name already taken by a static snapshot is rejected. Durable opens
// perform WAL recovery (checkpoint load + tail replay) outside the
// registry lock, so a long recovery never stalls unrelated registry
// traffic; concurrent opens of the same name coalesce into one recovery.
func (r *Registry) OpenLive(name string) (*LiveGraph, error) {
	if err := validSnapshotName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	for r.liveOpening[name] {
		r.liveOpened.Wait()
	}
	if lg, ok := r.live[name]; ok {
		r.mu.Unlock()
		return lg, nil
	}
	if _, ok := r.snaps[name]; ok {
		r.mu.Unlock()
		return nil, &NameError{Name: name, Reason: "already registered for a static snapshot"}
	}
	if r.liveDir == "" {
		lg := NewLiveGraph(name, r.liveOpts...)
		r.live[name] = lg
		r.mu.Unlock()
		return lg, nil
	}
	r.liveOpening[name] = true
	r.mu.Unlock()

	lg, err := OpenLiveGraph(name, filepath.Join(r.liveDir, name), r.liveOpts...)

	r.mu.Lock()
	delete(r.liveOpening, name)
	if err == nil {
		r.live[name] = lg
	}
	r.liveOpened.Broadcast()
	r.mu.Unlock()
	return lg, err
}

// LiveDir returns the registry's WAL root for durable live graphs ("" when
// live graphs are in-memory). Followers seed a stream's directory under it
// (checkpoint download) before OpenLive recovers the graph.
func (r *Registry) LiveDir() string { return r.liveDir }

// CloseLive removes a live graph from the registry and closes its log.
// The name becomes free to reopen — which is how a follower re-bootstraps
// after the primary compacted past its position: close, wipe the stream
// directory, re-seed from the newer checkpoint, OpenLive again.
func (r *Registry) CloseLive(name string) error {
	r.mu.Lock()
	for r.liveOpening[name] {
		r.liveOpened.Wait()
	}
	lg, ok := r.live[name]
	if !ok {
		r.mu.Unlock()
		return unknownSnapshot(name)
	}
	delete(r.live, name)
	r.mu.Unlock()
	return lg.Close()
}

// LiveGraph resolves an existing live graph by name.
func (r *Registry) LiveGraph(name string) (*LiveGraph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lg, ok := r.live[name]
	if !ok {
		return nil, unknownSnapshot(name)
	}
	return lg, nil
}

// LiveGraphs lists the live graphs sorted by name.
func (r *Registry) LiveGraphs() []*LiveGraph {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*LiveGraph, 0, len(r.live))
	for _, lg := range r.live {
		out = append(out, lg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// RestoreLiveDir reopens every live graph persisted under the registry's
// live directory (one subdirectory per stream), returning the sorted
// restored names. It is a no-op without a live directory.
func (r *Registry) RestoreLiveDir() ([]string, error) {
	if r.liveDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(r.liveDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := r.OpenLive(e.Name()); err != nil {
			return names, fmt.Errorf("lipstick: restoring live graph %q: %w", e.Name(), err)
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Single returns the lone registered static snapshot when exactly one
// exists.
func (r *Registry) Single() (SnapshotInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.snaps) != 1 {
		return SnapshotInfo{}, false
	}
	for name, path := range r.snaps {
		return SnapshotInfo{Name: name, Path: path, Kind: "static"}, true
	}
	return SnapshotInfo{}, false // unreachable
}

// SingleLive returns the lone live graph when exactly one exists and no
// static snapshot is registered (the default target of a pure-ingest
// server).
func (r *Registry) SingleLive() (*LiveGraph, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.snaps) != 0 || len(r.live) != 1 {
		return nil, false
	}
	for _, lg := range r.live {
		return lg, true
	}
	return nil, false // unreachable
}

// Lookup resolves a snapshot name to its path.
func (r *Registry) Lookup(name string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	path, ok := r.snaps[name]
	if !ok {
		return "", unknownSnapshot(name)
	}
	return path, nil
}

// Open returns the shared cached processor for a registered snapshot.
// It answers read queries only; mutations go through sessions.
func (r *Registry) Open(name string) (*QueryProcessor, error) {
	path, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	return r.mgr.Open(path)
}

// CreateSession opens a copy-on-write mutation session over a registered
// snapshot. Expired sessions are swept first; if the registry is at its
// session cap the least recently used session is evicted.
func (r *Registry) CreateSession(snapshot string) (*Session, error) {
	if _, err := r.LiveGraph(snapshot); err == nil {
		// Overlays require an immutable base; a live graph mutates under
		// ingestion. Checkpointed snapshots of the stream are sessionable.
		return nil, &NameError{Name: snapshot, Reason: "is a live graph; sessions require a static snapshot"}
	}
	base, err := r.Open(snapshot) // load outside the registry lock
	if err != nil {
		return nil, err
	}
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	for len(r.sessions) >= r.maxSess {
		r.evictLRULocked()
	}
	r.seq++
	id := newSessionID(r.seq)
	s := newSession(id, snapshot, base, now)
	r.sessions[id] = s
	statSessionsCreated.Add(1)
	return s, nil
}

// ForkSession clones a session's copy-on-write state into a fresh
// session over the same snapshot: the overlay's delta sets and the zoom
// stack are copied in O(changes) — the base graph is never copied — and
// the two sessions mutate independently from that point.
func (r *Registry) ForkSession(id string) (*Session, error) {
	parent, err := r.Session(id)
	if err != nil {
		return nil, err
	}
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	for len(r.sessions) >= r.maxSess {
		r.evictLRULocked()
	}
	r.seq++
	child := parent.fork(newSessionID(r.seq), now)
	r.sessions[child.id] = child
	statSessionsCreated.Add(1)
	statSessionsForked.Add(1)
	return child, nil
}

// newSessionID builds an id that is unguessable (random suffix — session
// ids are capability tokens over the HTTP API) and unique even across
// process restarts and random-source failure (the sequence prefix).
func newSessionID(seq uint64) string {
	var b [8]byte
	_, _ = rand.Read(b[:]) // a short read only weakens the random suffix
	return fmt.Sprintf("sess-%d-%s", seq, hex.EncodeToString(b[:]))
}

// Session resolves a session id, refreshing its TTL clock.
func (r *Registry) Session(id string) (*Session, error) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return nil, unknownSession(id)
	}
	if s.expired(now, r.sessionTTL) {
		delete(r.sessions, id)
		return nil, unknownSession(id)
	}
	s.touch(now)
	return s, nil
}

// CloseSession discards a session and its overlay.
func (r *Registry) CloseSession(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[id]; !ok {
		return unknownSession(id)
	}
	delete(r.sessions, id)
	return nil
}

// Sessions returns the live (unexpired) sessions, most recent first.
func (r *Registry) Sessions() []*Session {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].lastUsed.Load() > out[j].lastUsed.Load()
	})
	return out
}

// NumSessions returns the number of live sessions.
func (r *Registry) NumSessions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// ExpireSessions sweeps expired sessions now and returns how many were
// dropped.
func (r *Registry) ExpireSessions() int {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.expireLocked(now)
}

func (r *Registry) expireLocked(now time.Time) int {
	n := 0
	for id, s := range r.sessions {
		if s.expired(now, r.sessionTTL) {
			delete(r.sessions, id)
			n++
		}
	}
	statSessionsExpired.Add(int64(n))
	return n
}

func (r *Registry) evictLRULocked() {
	var oldest *Session
	for _, s := range r.sessions {
		if oldest == nil || s.lastUsed.Load() < oldest.lastUsed.Load() {
			oldest = s
		}
	}
	if oldest != nil {
		delete(r.sessions, oldest.id)
		statSessionsEvicted.Add(1)
	}
}

// Close shuts the registry down: every durable live graph is flushed and
// its write-ahead log closed, releasing the committer goroutine and file
// handles. The first close error is returned; the registry must not be
// used afterwards.
func (r *Registry) Close() error {
	r.mu.Lock()
	live := make([]*LiveGraph, 0, len(r.live))
	for _, lg := range r.live {
		live = append(live, lg)
	}
	r.live = map[string]*LiveGraph{}
	r.sessions = map[string]*Session{}
	r.mu.Unlock()
	var first error
	for _, lg := range live {
		if err := lg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
