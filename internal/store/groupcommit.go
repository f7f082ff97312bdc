package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"lipstick/internal/faultinject"
	"lipstick/internal/provgraph"
)

// Group commit is the log's only write path. Concurrent Appends encode
// their events into WAL record frames (outside any log lock), enqueue
// them to the log's single committer goroutine, and block on a per-batch
// Commit handle. The moment it is free, the committer takes everything
// pending — up to a byte budget — into one segment write and one fsync
// (mostly over the zeroed extent described at sync), then fans the
// outcome back to each waiter. No timer waits for company: one disk
// flush is amortized over every batch that arrived while the previous
// flush was in flight, and a lone batch commits at once.
// Callers overlap their CPU work (decode, validate, graph application)
// with the disk. Rotations, checkpoints and Close run on the same
// goroutine, in queue order.
//
// A failed group write rolls the segment back to its pre-group state (so
// no torn bytes survive), fails every queued waiter, and leaves the log
// in a sticky failed state until ResetFailed — the caller
// (core.LiveGraph) re-logs the lost suffix before accepting new events,
// keeping WAL positions aligned with stream sequences. The next commit
// then starts a fresh segment.

// ErrLogClosed reports an append to a closed log.
var ErrLogClosed = errors.New("store: wal closed")

// maxPooledRecordBytes caps the encode buffers kept in the pool so one
// giant batch does not pin its buffer forever.
const maxPooledRecordBytes = 1 << 22

// Records is a batch of events framed as WAL records — uvarint(len) +
// payload + crc32, concatenated — ready for the committer to write
// verbatim. Records handed to AppendRecords are owned by the log and
// recycled after the commit completes.
type Records struct {
	buf   []byte
	ends  []int // ends[i] is the end offset of record i in buf
	first int   // records [first, len(ends)) are live
}

// Len returns the number of live records.
func (r *Records) Len() int { return len(r.ends) - r.first }

// Skip drops the first n live records (a duplicate batch prefix).
func (r *Records) Skip(n int) {
	if r.first += n; r.first > len(r.ends) {
		r.first = len(r.ends)
	}
}

// Truncate keeps only the first n live records (a partially applied
// batch logs only its applied prefix).
func (r *Records) Truncate(n int) {
	if r.first+n < len(r.ends) {
		r.ends = r.ends[:r.first+n]
	}
}

// start returns the offset in buf of live record i's frame.
func (r *Records) start(i int) int {
	if idx := r.first + i; idx > 0 {
		return r.ends[idx-1]
	}
	return 0
}

// end returns the offset in buf just past live record i's frame.
func (r *Records) end(i int) int { return r.ends[r.first+i] }

// bytesLive returns the total framed size of the live records.
func (r *Records) bytesLive() int {
	if r.Len() == 0 {
		return 0
	}
	return r.end(r.Len()-1) - r.start(0)
}

// Recycle returns the Records to the pool. AppendRecords does this
// automatically; only callers that never submitted need to call it.
func (r *Records) Recycle() {
	if cap(r.buf) <= maxPooledRecordBytes {
		recordsPool.Put(r)
	}
}

var recordsPool = sync.Pool{New: func() any { return new(Records) }}

// EncodeRecords frames events as WAL records into a pooled Records, ready
// for AppendRecords. Each event is encoded by append straight into the
// batch buffer behind a one-byte length slot; a payload of 128 bytes or
// more widens the slot to its uvarint length and shifts the payload up,
// so the frame is exactly uvarint(len) + payload + crc32 with no
// intermediate copy. Encoding happens entirely outside the log's locks,
// so concurrent producers encode in parallel.
func EncodeRecords(events []provgraph.Event) (*Records, error) {
	r := recordsPool.Get().(*Records)
	r.ends, r.first = r.ends[:0], 0
	w := writer{buf: r.buf[:0]}
	var zeros [binary.MaxVarintLen64]byte
	for i := range events {
		start := len(w.buf)
		w.buf = append(w.buf, 0)
		w.event(&events[i])
		if w.err != nil {
			r.buf = w.buf
			r.Recycle()
			return nil, w.err
		}
		n := len(w.buf) - start - 1
		head := 1
		if n >= 0x80 {
			head = uvarintLen(uint64(n))
			w.buf = append(w.buf, zeros[:head-1]...)
			copy(w.buf[start+head:], w.buf[start+1:start+1+n])
		}
		binary.PutUvarint(w.buf[start:], uint64(n))
		w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf[start+head:]))
		r.ends = append(r.ends, len(w.buf))
	}
	r.buf = w.buf
	return r, nil
}

// Commit is the waitable handle of one enqueued batch.
type Commit struct {
	done chan struct{}
	err  error
}

// Wait blocks until the batch's group commit completes (write + fsync,
// per the log's policy) and returns its outcome.
func (c *Commit) Wait() error {
	<-c.done
	return c.err
}

// commitOp is one queue entry: an append (recs != nil), a checkpoint
// (snap != nil), a close, or a pure ordering barrier (all zero).
type commitOp struct {
	recs  *Records
	snap  *Snapshot
	close bool
	c     *Commit
}

// GroupStats are the committer's operational counters.
type GroupStats struct {
	// Commits counts coalesced write+fsync cycles; Batches counts the
	// Append batches they covered (Batches/Commits = amortization factor).
	Commits int64
	Batches int64
	// QueueHighWater is the deepest the commit queue has been.
	QueueHighWater int64
}

// GroupStats returns the committer's counters.
func (l *Log) GroupStats() GroupStats {
	return GroupStats{
		Commits:        l.gc.commits.Load(),
		Batches:        l.gc.batches.Load(),
		QueueHighWater: l.gc.queueHW.Load(),
	}
}

// Failed returns the sticky error of a failed group commit, nil when the
// log is healthy.
func (l *Log) Failed() error {
	l.gc.mu.Lock()
	defer l.gc.mu.Unlock()
	return l.gc.failed
}

// ResetFailed clears the sticky failure so appends may resume. The caller
// must first re-log every event acknowledged to it but lost by the failed
// commits (LastSeq tells it where the durable prefix ends).
func (l *Log) ResetFailed() {
	l.gc.mu.Lock()
	l.gc.failed = nil
	l.gc.mu.Unlock()
}

// AppendRecords enqueues a pre-encoded batch for group commit and returns
// its Commit handle. The log takes ownership of recs (it is recycled when
// the commit completes, or on a refused submit).
func (l *Log) AppendRecords(recs *Records) (*Commit, error) {
	return l.gc.submit(commitOp{recs: recs})
}

// Barrier enqueues an ordering-only commit: its Wait returns once every
// previously enqueued batch is durable. Used to honor the durability
// promise of acknowledging a fully duplicate batch.
func (l *Log) Barrier() (*Commit, error) {
	return l.gc.submit(commitOp{})
}

// storeMax raises a monotonic gauge to v (CAS loop: a concurrent lower
// observation must never overwrite a higher one).
func storeMax(gauge *atomic.Int64, v int64) {
	for {
		cur := gauge.Load()
		if v <= cur || gauge.CompareAndSwap(cur, v) {
			return
		}
	}
}

// committer owns the log's file state: every segment write, rotation,
// checkpoint, and close runs on its goroutine, in queue order.
type committer struct {
	l *Log

	mu     sync.Mutex
	queue  []commitOp // guarded by mu
	qbytes int        // guarded by mu
	failed error      // guarded by mu
	closed bool       // guarded by mu
	wake   chan struct{}

	// spare is the next segment file, created ahead of time by a
	// background goroutine so rotation inside the commit loop is a rename
	// plus a header write, never a create-stall.
	spareMu   sync.Mutex
	spare     *os.File // guarded by spareMu
	sparePath string
	preparing bool // guarded by spareMu
	prepWG    sync.WaitGroup

	commits atomic.Int64
	batches atomic.Int64
	queueHW atomic.Int64
}

func newCommitter(l *Log) *committer {
	return &committer{
		l:         l,
		wake:      make(chan struct{}, 1),
		sparePath: filepath.Join(l.dir, walSegPrefix+"spare"+walTempSuffix),
	}
}

// submit enqueues op and wakes the committer. Appends and checkpoints are
// refused while the log is failed (the stream owner must ResetFailed
// after re-syncing) or closed; close ops always go through.
func (g *committer) submit(op commitOp) (*Commit, error) {
	c := &Commit{done: make(chan struct{})}
	op.c = c
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		if op.recs != nil {
			op.recs.Recycle()
		}
		return nil, ErrLogClosed
	}
	if g.failed != nil && !op.close {
		err := g.failed
		g.mu.Unlock()
		if op.recs != nil {
			op.recs.Recycle()
		}
		return nil, fmt.Errorf("store: wal is failed (ResetFailed to resume): %w", err)
	}
	g.queue = append(g.queue, op)
	if op.recs != nil {
		g.qbytes += op.recs.bytesLive()
	}
	storeMax(&g.queueHW, int64(len(g.queue)))
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
	return c, nil
}

// run is the committer loop: take a group, commit it, fan out results.
func (g *committer) run() {
	for range g.wake {
		for {
			g.mu.Lock()
			if len(g.queue) == 0 {
				g.mu.Unlock()
				break
			}
			// Take a group: the maximal prefix of append ops within the
			// byte budget (always at least one), or one control op. What
			// queued during the previous commit is the whole group; nothing
			// waits for more.
			var ops []commitOp
			if g.queue[0].recs == nil {
				ops = []commitOp{g.queue[0]}
				g.queue = g.queue[1:]
			} else {
				take, taken := 0, 0
				for take < len(g.queue) && g.queue[take].recs != nil {
					sz := g.queue[take].recs.bytesLive()
					if take > 0 && taken+sz > g.l.groupBytes {
						break
					}
					taken += sz
					take++
				}
				ops = append([]commitOp(nil), g.queue[:take]...)
				g.queue = g.queue[take:]
				g.qbytes -= taken
			}
			g.mu.Unlock()

			if ops[0].recs != nil {
				if g.commitGroup(ops) {
					return // a queued close was handled in the failure drain
				}
				continue
			}
			op := ops[0]
			switch {
			case op.close:
				g.doClose(op)
				return
			case op.snap != nil:
				g.complete(op, g.l.checkpointNow(op.snap))
			default: // barrier
				g.complete(op, nil)
			}
		}
	}
}

// commitGroup writes the group's records (rotating segments as needed),
// flushes, syncs once, and fans the outcome to every waiter. The write
// is all-or-nothing: on failure the on-disk state is rolled back to the
// pre-group position and the log enters the sticky failed state. It
// reports whether a close op queued behind a failed group was executed
// (the caller's loop must exit — nothing will wake it again).
func (g *committer) commitGroup(ops []commitOp) (closed bool) {
	l := g.l
	entrySeq, entryPath, entrySize := l.seq.Load(), l.path, l.size
	var created []string
	written := 0
	var err error
	_ = faultinject.Err("wal.slow") // delay-only point: the sleep is the fault

write:
	for _, op := range ops {
		// Each run of records up to the next rotation point goes to the
		// segment in one Write: the op's frames are contiguous in its
		// buffer.
		for i, n := 0, op.recs.Len(); i < n; {
			if l.f == nil || l.size >= l.segLimit {
				if err = g.rotate(entrySeq+uint64(written)+1, &created); err != nil {
					break write
				}
			}
			start, end := op.recs.start(i), 0
			j := i
			for j < n {
				end = op.recs.end(j)
				j++
				if l.size+int64(end-start) >= l.segLimit {
					break
				}
			}
			run := op.recs.buf[start:end]
			if f := faultinject.Fire("wal.write"); f != nil {
				if f.Torn && l.bw != nil {
					// Flush a deliberately partial frame so recovery sees a
					// torn tail, exactly as after a mid-write crash.
					first := op.recs.end(i) - start
					_, _ = l.bw.Write(run[:first/2])
					_ = l.bw.Flush()
				}
				err = f.Err
				break write
			}
			if _, err = l.bw.Write(run); err != nil {
				break write
			}
			l.size += int64(len(run))
			written += j - i
			i = j
		}
	}
	if err == nil && l.bw != nil {
		err = l.bw.Flush()
	}
	if err == nil && l.fsync && l.f != nil && written > 0 {
		err = g.sync()
	}

	if err != nil {
		// Roll back to the pre-group state: close the damaged segment, drop
		// segments the group created, truncate the entry segment to its
		// pre-group length.
		// A simulated crash skips the disk rollback — the process would
		// be dead before it ran — leaving the torn bytes for recovery.
		if l.f != nil {
			_ = l.f.Close() // the write already failed; rollback proceeds regardless
			l.f, l.bw = nil, nil
		}
		if !faultinject.IsCrash(err) {
			for _, p := range created {
				os.Remove(p)
			}
			if entryPath != "" {
				if terr := os.Truncate(entryPath, entrySize); terr != nil {
					err = fmt.Errorf("store: rolling back failed group commit: %w (after %w)", terr, err)
				}
			}
		}
		l.path, l.size = "", 0
		g.mu.Lock()
		g.failed = err
		rest := g.queue
		g.queue, g.qbytes = nil, 0
		g.mu.Unlock()
		for _, op := range ops {
			g.complete(op, err)
		}
		// Queued ops after the failed group cannot land at their assigned
		// positions; fail them too (a queued close still closes).
		for _, op := range rest {
			if op.close {
				g.doClose(op)
				closed = true
				continue
			}
			g.complete(op, fmt.Errorf("store: wal group commit failed upstream: %w", err))
		}
		return closed
	}

	l.seq.Store(entrySeq + uint64(written))
	g.commits.Add(1)
	g.batches.Add(int64(len(ops)))
	for _, op := range ops {
		g.complete(op, nil)
	}
	return false
}

// zeroChunkBytes caps how far one commit extends its segment with zeros.
const zeroChunkBytes = 1 << 20

var zeroChunk [zeroChunkBytes]byte

// sync makes the group's records durable. When they end past the
// segment's zeroed extent, zeros are written right after them first,
// as many bytes as the segment holds up to zeroChunkBytes: real zero
// bytes, not a hole or an unwritten extent, since writing into those
// would need the journal again. The commits that follow overwrite those
// allocated, durable blocks, so their sync changes no file size and
// commits no journal. The extent doubles like an append-grown slice: a
// segment pays about log2(its bytes / its first commit) extending
// commits up to its first MiB, then one per MiB of records, and its
// file is never more than twice its records nor more than 1 MiB past
// them. Readers stop at the first zero length (readSegment).
func (g *committer) sync() error {
	l := g.l
	zeroed := l.zeroed
	if l.size > zeroed {
		n := min(l.size, zeroChunkBytes)
		if _, err := l.f.WriteAt(zeroChunk[:n], l.size); err != nil {
			return err
		}
		zeroed = l.size + n
	}
	if err := faultinject.Err("wal.fsync"); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.zeroed = zeroed
	return nil
}

// closeSegment flushes the active segment, cuts its zero tail so the
// file ends at its last record, syncs it (per policy) and closes it.
func (g *committer) closeSegment() error {
	l := g.l
	err := l.bw.Flush()
	if err == nil && l.zeroed > l.size {
		err = l.f.Truncate(l.size)
	}
	if err == nil && l.fsync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.f, l.bw = nil, nil
	return err
}

// complete resolves one op's Commit handle and recycles its buffers.
func (g *committer) complete(op commitOp, err error) {
	if op.recs != nil {
		op.recs.Recycle()
	}
	op.c.err = err
	close(op.c.done)
}

// doClose closes the active segment (closeSegment), removes the spare,
// marks the log closed, and fails anything still queued.
func (g *committer) doClose(op commitOp) {
	l := g.l
	var err error
	if l.f != nil {
		err = g.closeSegment()
	}
	l.path, l.size = "", 0
	g.mu.Lock()
	g.closed = true
	rest := g.queue
	g.queue, g.qbytes = nil, 0
	g.mu.Unlock()
	// Closed is set, so a prepare that is still in flight removes its own
	// file; wait it out, then drop any installed spare.
	g.prepWG.Wait()
	g.spareMu.Lock()
	if g.spare != nil {
		_ = g.spare.Close() // never written; the file is removed next
		os.Remove(g.sparePath)
		g.spare = nil
	}
	g.spareMu.Unlock()
	for _, o := range rest {
		g.complete(o, ErrLogClosed)
	}
	g.complete(op, err)
}

// rotate closes the active segment (closeSegment) and opens
// wal-<firstSeq>, preferring the pre-created spare file (rename + header
// write instead of a create).
func (g *committer) rotate(firstSeq uint64, created *[]string) error {
	l := g.l
	if l.f != nil {
		if err := g.closeSegment(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.dir, segName(firstSeq))
	f := g.takeSpare(path)
	if f == nil {
		var err error
		f, err = os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
	}
	*created = append(*created, path)
	l.f = f
	l.bw = bufio.NewWriter(f)
	l.path = path
	if _, err := l.bw.Write(walMagic); err != nil {
		return err
	}
	if err := l.bw.WriteByte(walVersion); err != nil {
		return err
	}
	var head [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], firstSeq)
	if _, err := l.bw.Write(head[:n]); err != nil {
		return err
	}
	l.size, l.zeroed = int64(len(walMagic)+1+n), 0
	// The segment's name must be as durable as the records the commit's
	// fsync is about to acknowledge.
	if l.fsync {
		if err := SyncDir(l.dir); err != nil {
			return err
		}
	}
	g.prepareSpare()
	return nil
}

// takeSpare claims the pre-created spare file under its final segment
// name, or returns nil if none is ready.
func (g *committer) takeSpare(path string) *os.File {
	g.spareMu.Lock()
	defer g.spareMu.Unlock()
	if g.spare == nil {
		return nil
	}
	f := g.spare
	g.spare = nil
	if err := os.Rename(g.sparePath, path); err != nil {
		_ = f.Close() // spare is abandoned and removed
		os.Remove(g.sparePath)
		return nil
	}
	return f
}

// prepareSpare creates the next segment file in the background. Created
// under a temp name (cleaned up by OpenLog after a crash) and renamed
// into place at rotation.
func (g *committer) prepareSpare() {
	g.spareMu.Lock()
	if g.spare != nil || g.preparing {
		g.spareMu.Unlock()
		return
	}
	g.preparing = true
	g.prepWG.Add(1)
	g.spareMu.Unlock()
	go func() {
		defer g.prepWG.Done()
		f, err := os.Create(g.sparePath)
		g.spareMu.Lock()
		g.preparing = false
		if err == nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed || g.spare != nil {
				_ = f.Close() // never written; the file is removed next
				os.Remove(g.sparePath)
			} else {
				g.spare = f
			}
		}
		g.spareMu.Unlock()
	}()
}
