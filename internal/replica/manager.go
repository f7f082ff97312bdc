package replica

import (
	"expvar"
	"log"
	"sync"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/serve"
)

// Manager follows every durable live graph of one primary: a discovery
// loop polls the primary's snapshot listing and spawns a Follower per
// stream (streams restored from the local WAL directory are followed
// immediately). Lag is the serve.ReplicaLagFunc a follower server
// installs via Service.SetReplicationLag; the package-level expvar
// gauges replicationLagSeq/replicationLagMs mirror the worst lag across
// every running manager.
type Manager struct {
	reg  *core.Registry
	cli  *Client
	poll time.Duration
	logf func(format string, args ...any)
	gen  func() uint64 // local node generation; zero value means "don't check"

	mu        sync.Mutex
	followers map[string]*Follower // guarded by mu
	stopped   bool                 // guarded by mu

	stop chan struct{}
	done chan struct{}
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithPollInterval sets the follower tail poll interval (<= 0 selects
// DefaultPollInterval). Discovery polls at 10x this, clamped to [poll, 1s].
func WithPollInterval(d time.Duration) ManagerOption {
	return func(m *Manager) {
		if d > 0 {
			m.poll = d
		}
	}
}

// WithGenerationFunc supplies the local node's failover generation
// (serve.Service.Generation). When set, a follower refuses to tail a
// primary reporting an older generation — a zombie ex-primary that came
// back after this node was promoted past it — and reports the stream
// unreachable instead of applying a forked history.
func WithGenerationFunc(fn func() uint64) ManagerOption {
	return func(m *Manager) {
		if fn != nil {
			m.gen = fn
		}
	}
}

// WithLogf routes the manager's diagnostics (default log.Printf).
func WithLogf(fn func(format string, args ...any)) ManagerOption {
	return func(m *Manager) {
		if fn != nil {
			m.logf = fn
		}
	}
}

// NewManager builds (without starting) a replication manager applying
// primaryURL's streams into reg, whose live directory must be set — a
// follower's value is a durable, promotable copy.
func NewManager(reg *core.Registry, primaryURL string, opts ...ManagerOption) *Manager {
	m := &Manager{
		reg:       reg,
		cli:       NewClient(primaryURL),
		poll:      DefaultPollInterval,
		logf:      log.Printf,
		gen:       func() uint64 { return 0 },
		followers: make(map[string]*Follower),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Start launches discovery (and a follower per already-known stream).
func (m *Manager) Start() {
	registerManager(m)
	for _, lg := range m.reg.LiveGraphs() {
		m.follow(lg.Name())
	}
	go m.discover()
}

// discover polls the primary's snapshot listing for new durable streams.
func (m *Manager) discover() {
	defer close(m.done)
	interval := 10 * m.poll
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		names, err := m.cli.LiveNames()
		if err != nil {
			m.logf("replica: discovering primary streams: %v", err)
		}
		for _, name := range names {
			m.follow(name)
		}
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
	}
}

// follow spawns a follower for name unless one is already running.
func (m *Manager) follow(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	if _, ok := m.followers[name]; ok {
		return
	}
	f := &Follower{
		name: name, reg: m.reg, cli: m.cli,
		poll: m.poll, logf: m.logf, gen: m.gen,
		stop: m.stop, done: make(chan struct{}),
	}
	m.followers[name] = f
	go f.run()
}

// Lag implements serve.ReplicaLagFunc over the managed followers.
func (m *Manager) Lag(name string) (serve.ReplicaLag, bool) {
	m.mu.Lock()
	f, ok := m.followers[name]
	m.mu.Unlock()
	if !ok {
		return serve.ReplicaLag{}, false
	}
	return f.Lag(), true
}

// Followers lists the followed stream names.
func (m *Manager) Followers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.followers))
	for name := range m.followers {
		names = append(names, name)
	}
	return names
}

// Promote stops discovery and every follower tail and waits for them to
// finish. The replicated graphs stay open in the registry, positioned at
// the last acked (locally durable) prefix — the caller flips the serving
// layer out of follower mode (serve.Service.Promote) and the process is
// a primary.
func (m *Manager) Promote() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	followers := make([]*Follower, 0, len(m.followers))
	for _, f := range m.followers {
		followers = append(followers, f)
	}
	m.mu.Unlock()
	close(m.stop)
	<-m.done
	for _, f := range followers {
		<-f.done
	}
	deregisterManager(m)
}

// Close stops replication (idempotent). Graphs stay open; closing them
// is the registry owner's job.
func (m *Manager) Close() error {
	m.Promote()
	return nil
}

// Package-level expvar gauges: the worst lag across every running
// manager's followers, published once (expvar panics on re-publish).
var (
	managersMu sync.Mutex
	managers   = map[*Manager]struct{}{} // guarded by managersMu
)

func registerManager(m *Manager) {
	managersMu.Lock()
	defer managersMu.Unlock()
	managers[m] = struct{}{}
}

func deregisterManager(m *Manager) {
	managersMu.Lock()
	defer managersMu.Unlock()
	delete(managers, m)
}

// worstLag folds every reachable follower's lag into the two gauge
// values. Streams whose primary is unreachable are excluded — their
// poll age grows without bound once the primary is gone, which used to
// pin the worst-lag gauges at "stuck forever" — and counted separately.
func worstLag() (lagSeq uint64, lagMs int64, unreachable int) {
	managersMu.Lock()
	mgrs := make([]*Manager, 0, len(managers))
	for m := range managers {
		mgrs = append(mgrs, m)
	}
	managersMu.Unlock()
	for _, m := range mgrs {
		m.mu.Lock()
		followers := make([]*Follower, 0, len(m.followers))
		for _, f := range m.followers {
			followers = append(followers, f)
		}
		m.mu.Unlock()
		for _, f := range followers {
			lag := f.Lag()
			if lag.Unreachable {
				unreachable++
				continue
			}
			if lag.LagSeq > lagSeq {
				lagSeq = lag.LagSeq
			}
			if lag.LagMs > lagMs {
				lagMs = lag.LagMs
			}
		}
	}
	return lagSeq, lagMs, unreachable
}

func init() {
	expvar.Publish("replicationLagSeq", expvar.Func(func() any {
		s, _, _ := worstLag()
		return s
	}))
	expvar.Publish("replicationLagMs", expvar.Func(func() any {
		_, ms, _ := worstLag()
		return ms
	}))
	expvar.Publish("replicationUnreachable", expvar.Func(func() any {
		_, _, n := worstLag()
		return n
	}))
}
