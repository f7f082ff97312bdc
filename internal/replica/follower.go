package replica

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/serve"
	"lipstick/internal/store"
)

// DefaultPollInterval is how often an idle follower polls the primary's
// durable position.
const DefaultPollInterval = 25 * time.Millisecond

// DefaultBatchEvents caps one catchup fetch.
const DefaultBatchEvents = 4096

// Follower replicates one durable live graph: it seeds the local WAL
// directory from the primary's newest checkpoint (local recovery then
// equals the primary's compacted prefix), tails the primary's durable
// event suffix, and applies it through the local graph's own ingest
// pipeline — so the follower's WAL and checkpoints are first-class, and
// promotion is just "stop tailing". A single goroutine owns the tail
// loop; everything other goroutines read (lag gauges) is atomic.
type Follower struct {
	name string
	reg  *core.Registry
	cli  *Client
	poll time.Duration
	logf func(format string, args ...any)
	gen  func() uint64 // local node generation for zombie-primary checks

	// Lag gauges, written by the tail loop only. primarySeq/lastPollNs
	// describe the last successful status poll of the primary;
	// appliedSeq is the local durable position; pollFails counts
	// consecutive failed polls (the primary-gone signal).
	primarySeq atomic.Uint64 // published via primarySeq
	appliedSeq atomic.Uint64 // published via appliedSeq
	lastPollNs atomic.Int64  // published via lastPollNs
	pollFails  atomic.Int64  // published via pollFails

	stop chan struct{}
	done chan struct{}
}

// unreachableAfter is how many consecutive failed primary polls flip a
// stream's health state to "unreachable": enough to ride out one
// dropped packet, few enough that a dead primary shows within ~3 polls.
const unreachableAfter = 3

// Lag reports how far this follower trails its primary, plus the
// stream's health state: "tailing" (caught up), "catching-up", or
// "unreachable" once unreachableAfter consecutive polls failed — the
// state aggregators use to keep a dead primary's ever-growing poll age
// out of the worst-lag gauges.
func (f *Follower) Lag() serve.ReplicaLag {
	primary, applied := f.primarySeq.Load(), f.appliedSeq.Load()
	lag := serve.ReplicaLag{PrimarySeq: primary, AppliedSeq: applied}
	if primary > applied {
		lag.LagSeq = primary - applied
	}
	if last := f.lastPollNs.Load(); last > 0 {
		lag.LagMs = time.Since(time.Unix(0, last)).Milliseconds()
	}
	switch {
	case f.pollFails.Load() >= unreachableAfter:
		lag.State = "unreachable"
		lag.Unreachable = true
	case lag.LagSeq > 0:
		lag.State = "catching-up"
	default:
		lag.State = "tailing"
	}
	return lag
}

// Name returns the followed stream's name.
func (f *Follower) Name() string { return f.name }

// dir is the stream's local WAL directory.
func (f *Follower) dir() string { return filepath.Join(f.reg.LiveDir(), f.name) }

// run is the tail loop; it owns every mutation of the local stream.
func (f *Follower) run() {
	defer close(f.done)
	lg := f.openRetry(nil)
	if lg == nil {
		return // stopped during bootstrap
	}
	f.appliedSeq.Store(lg.Seq())
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		st, err := f.cli.Status(f.name)
		if err != nil {
			f.pollFails.Add(1)
			f.logf("replica: %s: polling primary: %v", f.name, err)
			if !f.sleep(f.poll) {
				return
			}
			continue
		}
		if gen := f.gen(); gen > 0 && st.Generation > 0 && st.Generation < gen {
			// The "primary" answers with an older generation than ours: a
			// zombie ex-primary came back after we were promoted past it.
			// Tailing it would apply a forked history — refuse and report
			// it unreachable until it rejoins at a current generation.
			f.pollFails.Add(1)
			f.logf("replica: %s: primary at stale generation %d (local %d); refusing to tail a zombie",
				f.name, st.Generation, gen)
			if !f.sleep(f.poll) {
				return
			}
			continue
		}
		f.pollFails.Store(0)
		f.primarySeq.Store(st.Seq)
		f.lastPollNs.Store(time.Now().UnixNano())
		applied := lg.Seq()
		f.appliedSeq.Store(applied)
		if st.Seq <= applied {
			if !f.sleep(f.poll) {
				return
			}
			continue
		}
		events, err := f.cli.Events(f.name, applied+1, DefaultBatchEvents)
		if err != nil {
			var compacted *store.CompactedError
			if errors.As(err, &compacted) {
				// The primary checkpointed past our position (possible
				// after a long partition): restart from its checkpoint.
				f.logf("replica: %s: primary compacted past %d; re-seeding from checkpoint %d",
					f.name, applied, compacted.CheckpointSeq)
				lg = f.openRetry(func() error { return f.reseed() })
				if lg == nil {
					return
				}
				f.appliedSeq.Store(lg.Seq())
				continue
			}
			f.logf("replica: %s: fetching events after %d: %v", f.name, applied, err)
			if !f.sleep(f.poll) {
				return
			}
			continue
		}
		if len(events) == 0 {
			// Advertised suffix not readable yet (torn tail mid-flush).
			if !f.sleep(f.poll) {
				return
			}
			continue
		}
		ist, err := lg.Append(applied+1, events)
		if err != nil {
			f.logf("replica: %s: applying %d events at %d: %v", f.name, len(events), applied+1, err)
			if !f.sleep(f.poll) {
				return
			}
			continue
		}
		f.appliedSeq.Store(ist.Seq)
		// Still behind: loop immediately, no idle sleep while catching up.
	}
}

// openRetry runs prepare (nil = none) then opens the local graph,
// retrying with the poll interval until it succeeds or the follower is
// stopped (nil return).
func (f *Follower) openRetry(prepare func() error) *core.LiveGraph {
	for {
		err := func() error {
			if prepare != nil {
				if err := prepare(); err != nil {
					return err
				}
			}
			return f.ensureSeeded()
		}()
		if err == nil {
			if lg, oerr := f.reg.OpenLive(f.name); oerr == nil {
				return lg
			} else {
				err = oerr
			}
		}
		f.logf("replica: %s: bootstrap: %v", f.name, err)
		if !f.sleep(f.poll) {
			return nil
		}
	}
}

// ensureSeeded downloads the primary's newest checkpoint into the local
// WAL directory when the stream has no local state yet, so OpenLive's
// recovery starts from the compacted prefix instead of sequence 1.
func (f *Follower) ensureSeeded() error {
	dir := f.dir()
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return nil // local state exists; recovery + tail catch us up
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	body, seq, err := f.cli.Checkpoint(f.name)
	if errors.Is(err, ErrNoCheckpoint) {
		return nil // tail from sequence 1
	}
	if err != nil {
		return err
	}
	defer func() { _ = body.Close() }() // response body; copy errors surface below
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, store.CheckpointFileName(seq))
	tmp := final + ".dl"
	w, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, body); err != nil {
		_ = w.Close() // temp is removed; the copy error wins
		os.Remove(tmp)
		return fmt.Errorf("replica: downloading checkpoint %d of %s: %w", seq, f.name, err)
	}
	if err := w.Sync(); err != nil {
		_ = w.Close() // temp is removed; the sync error wins
		os.Remove(tmp)
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return store.SyncDir(dir)
}

// reseed discards the local stream (it fell behind the primary's
// retention) so ensureSeeded can restart from the newer checkpoint.
func (f *Follower) reseed() error {
	if err := f.reg.CloseLive(f.name); err != nil {
		var nf *core.NotFoundError
		if !errors.As(err, &nf) {
			return err
		}
	}
	return os.RemoveAll(f.dir())
}

// sleep waits d or until the follower is stopped (false).
func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.stop:
		return false
	case <-t.C:
		return true
	}
}
