package core

import (
	"container/list"
	"os"
	"sync"
	"time"
)

// DefaultSnapshotCacheSize is the snapshot-cache capacity used when a
// SnapshotManager is created with a non-positive capacity, and the size of
// the package-level cache behind Open.
const DefaultSnapshotCacheSize = 8

// SnapshotManager owns an LRU cache of loaded QueryProcessors keyed by
// snapshot path, so repeated queries against the same snapshot pay the
// load-and-build cost once (the long-running Query Processor the paper's
// load-per-query pipeline grows into). Entries are revalidated against the
// file's mtime and size on every Open, so replacing a snapshot on disk is
// picked up transparently.
//
// The manager is safe for concurrent use. A cached processor is shared
// between every caller that Opens the same path; it has no mutating
// method, and zooms and applied deletions go through a Session (NewSession
// or Registry.CreateSession), whose copy-on-write overlay leaves the
// shared graph untouched.
type SnapshotManager struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // guarded by mu
	lru      *list.List               // of *snapshotEntry; front = most recently used; guarded by mu
}

type snapshotEntry struct {
	path string

	mu    sync.Mutex      // serializes (re)loads of this path
	qp    *QueryProcessor // guarded by mu
	mtime time.Time       // guarded by mu
	size  int64           // guarded by mu
}

// NewSnapshotManager returns a manager caching up to capacity loaded
// snapshots (capacity <= 0 selects DefaultSnapshotCacheSize).
func NewSnapshotManager(capacity int) *SnapshotManager {
	if capacity <= 0 {
		capacity = DefaultSnapshotCacheSize
	}
	return &SnapshotManager{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Open returns the cached query processor for the snapshot at path,
// loading it on first use or when the file changed (different mtime or
// size) since it was cached. Concurrent Opens of the same path perform a
// single load; loads of distinct paths proceed in parallel.
//
// Revalidation is by mtime+size only: overwriting a snapshot in place
// with a same-length file within the filesystem's mtime granularity is
// not detectable this way — callers doing rapid in-place rewrites should
// call Invalidate (or write to a fresh path) to force a reload.
func (m *SnapshotManager) Open(path string) (*QueryProcessor, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	e := m.entry(path)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.qp != nil && e.mtime.Equal(fi.ModTime()) && e.size == fi.Size() {
		statCacheHits.Add(1)
		return e.qp, nil
	}
	statCacheMisses.Add(1)
	qp, err := Load(path)
	if err != nil {
		return nil, err
	}
	e.qp, e.mtime, e.size = qp, fi.ModTime(), fi.Size()
	return qp, nil
}

// entry returns the cache slot for path, creating it (and evicting the
// least recently used slot past capacity) under the manager lock. Loading
// happens outside this lock, on the entry's own mutex.
func (m *SnapshotManager) entry(path string) *snapshotEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[path]; ok {
		m.lru.MoveToFront(el)
		return el.Value.(*snapshotEntry)
	}
	e := &snapshotEntry{path: path}
	m.entries[path] = m.lru.PushFront(e)
	for m.lru.Len() > m.capacity {
		back := m.lru.Back()
		delete(m.entries, back.Value.(*snapshotEntry).path)
		m.lru.Remove(back)
	}
	return e
}

// Invalidate drops the cached processor for path (if any); the next Open
// reloads from disk regardless of mtime.
func (m *SnapshotManager) Invalidate(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[path]; ok {
		delete(m.entries, path)
		m.lru.Remove(el)
	}
}

// Len returns the number of cached (or loading) snapshot slots.
func (m *SnapshotManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// defaultManager backs the package-level Open.
var defaultManager = NewSnapshotManager(DefaultSnapshotCacheSize)

// Open returns a cached query processor for the snapshot at path, loading
// it at most once per file version (path + mtime + size) across the
// process. The returned processor is shared; transform its graph through
// a Session (see SnapshotManager).
func Open(path string) (*QueryProcessor, error) {
	return defaultManager.Open(path)
}
