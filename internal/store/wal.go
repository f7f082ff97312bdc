package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lipstick/internal/faultinject"
	"lipstick/internal/provgraph"
)

// Write-ahead log for provenance event streams. A log directory holds:
//
//	wal-<firstSeq>.lpwal        append-only segments of CRC-framed events
//	checkpoint-<seq>.lpsk       a standard LPSK v3 snapshot compacting the
//	                            event prefix 1..seq
//
// Events are numbered 1,2,3,... per stream. Each segment starts with a
// header (magic, version, the sequence of its first record) and then holds
// records numbered consecutively: uvarint payload length, the encoded
// event (events.go), and a CRC32 of the payload. No payload is empty, so a
// record whose length is 0 ends a segment's data.
//
// With fsync on, the segment being written carries a zero tail: a commit
// whose records end past the zero-filled part of the file also writes
// zeros after them, as many bytes as the segment holds up to 1 MiB
// (groupcommit.go), so the commits that follow overwrite allocated
// blocks instead of growing the file. Rotation and
// Close cut the tail off before their last sync: a closed segment ends
// at its last record, byte for byte what an append-only writer leaves.
//
// Recovery loads the newest checkpoint and replays the segment tail after
// it. A torn final record (a crash mid-write) is detected by the CRC or a
// short read, and a zero tail by its zero length; both are truncated away
// from the newest segment, so the log always reopens to a consistent
// prefix.
//
// Checkpointing compacts: the snapshot is written atomically (temp file +
// rename), then every segment and older checkpoint it covers is deleted,
// bounding recovery to checkpoint-load + tail-replay.

var walMagic = []byte{'L', 'P', 'W', 'L'}

const walVersion = 1

const (
	walSegPrefix  = "wal-"
	walSegSuffix  = ".lpwal"
	ckptPrefix    = "checkpoint-"
	ckptSuffix    = ".lpsk"
	walTempSuffix = ".tmp"
)

// DefaultSegmentLimit is the rotation threshold for WAL segments.
const DefaultSegmentLimit = 8 << 20

// Log is the writer half of a WAL directory. Append, AppendRecords,
// Barrier, Checkpoint and Close are safe for concurrent use: every batch
// is enqueued to the log's committer goroutine, which coalesces
// everything pending into one write + fsync and performs every rotation,
// checkpoint and close in queue order (see groupcommit.go). A log owns
// goroutines from OpenLog on; Close stops them.
type Log struct {
	dir      string
	segLimit int64
	fsync    bool

	groupBytes int
	gc         *committer

	seq     atomic.Uint64 // last durable (or recovered) sequence number
	ckptSeq atomic.Uint64 // sequence covered by the newest checkpoint

	// The active segment; only the committer goroutine touches these.
	f    *os.File
	bw   *bufio.Writer
	path string // active segment path ("" when no segment is open)
	size int64  // logical bytes of the active segment: its records end here
	// zeroed is how far the active segment's file is zero-filled and
	// synced (0 with fsync off: no zeros are written). Between commits
	// the file ends at max(size, zeroed).
	zeroed int64
}

// LogOption configures a Log.
type LogOption func(*Log)

// WithSegmentLimit sets the segment rotation threshold in bytes
// (<= 0 selects DefaultSegmentLimit).
func WithSegmentLimit(n int64) LogOption {
	return func(l *Log) {
		if n > 0 {
			l.segLimit = n
		}
	}
}

// WithFsync controls whether every commit fsyncs the segment (default
// true: an acknowledged batch survives a process kill and a power cut).
// Segments are then extended ahead with zeros so that most commits
// change no file size. Disabling trades that durability for throughput and writes no zeros;
// a kill then loses at most the unsynced suffix, never consistency.
func WithFsync(on bool) LogOption {
	return func(l *Log) { l.fsync = on }
}

// DefaultGroupCommitBytes caps the payload of one coalesced commit.
const DefaultGroupCommitBytes = 4 << 20

// DefaultGroupCommitDelay was the gather window a lone pending batch
// waited out for company before the committer flushed it.
//
// Deprecated: the committer has no gather window; it takes whatever is
// queued the moment it is free, and WithGroupCommit ignores its maxDelay.
// The remaining callers are the benchmark harness's durable options
// (bench/ingest.go:34, bench/ingest.go:319 and bench/servemixed.go:173);
// ROADMAP.md direction 12 removes them and this constant with them.
const DefaultGroupCommitDelay = 200 * time.Microsecond

// WithGroupCommit caps one commit's payload at maxBytes (<= 0 selects
// DefaultGroupCommitBytes, also the default). The committer takes
// whatever is queued the moment it is free, so batches that arrive
// during a write + fsync coalesce into the next commit; maxDelay is
// ignored (see DefaultGroupCommitDelay). The cap does not change the
// on-disk format, and a commit is acknowledged only after its fsync.
func WithGroupCommit(maxDelay time.Duration, maxBytes int) LogOption {
	return func(l *Log) {
		l.groupBytes = maxBytes
		if maxBytes <= 0 {
			l.groupBytes = DefaultGroupCommitBytes
		}
	}
}

// Recovery is what OpenLog reconstructed from the directory.
type Recovery struct {
	// Snapshot is the newest checkpoint, nil if none was taken.
	Snapshot *Snapshot
	// CheckpointSeq is the event sequence the checkpoint covers (0 if
	// none): the snapshot equals replaying events 1..CheckpointSeq.
	CheckpointSeq uint64
	// Tail holds the logged events after the checkpoint, in order
	// (sequences CheckpointSeq+1 .. LastSeq).
	Tail []provgraph.Event
	// LastSeq is the sequence of the last durable event.
	LastSeq uint64
}

// OpenLog opens (creating if needed) a WAL directory, recovers its state,
// truncates any torn tail record, removes the temp files a crash left
// behind, and starts the committer. The returned Log appends event
// LastSeq+1 next, into a new segment wal-<LastSeq+1>: it never appends to
// a segment an earlier Log wrote.
func OpenLog(dir string, opts ...LogOption) (*Log, *Recovery, error) {
	l := &Log{dir: dir, segLimit: DefaultSegmentLimit, fsync: true, groupBytes: DefaultGroupCommitBytes}
	for _, opt := range opts {
		opt(l)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := removeTempFiles(dir); err != nil {
		return nil, nil, err
	}
	segs, ckpts, err := scanLogDir(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovery{}
	if len(ckpts) > 0 {
		best := ckpts[len(ckpts)-1]
		snap, err := Load(filepath.Join(dir, ckptName(best)))
		if err != nil {
			return nil, nil, fmt.Errorf("store: loading checkpoint %d: %w", best, err)
		}
		rec.Snapshot, rec.CheckpointSeq = snap, best
	}
	l.ckptSeq.Store(rec.CheckpointSeq)
	l.seq.Store(rec.CheckpointSeq)

	for i, first := range segs {
		path := filepath.Join(dir, segName(first))
		last := i == len(segs)-1
		// Skip everything already recovered (the checkpoint and earlier
		// segments): compacted leftovers and the overlap a failed-then-
		// retried Append leaves behind both dedupe by sequence here.
		events, lastSeq, goodLen, torn, err := readSegment(path, first, l.seq.Load())
		if err != nil {
			// Environmental or structural failure (unopenable file, bad
			// magic): never destructive — durable records must not be
			// truncated because of a transient read problem.
			return nil, nil, fmt.Errorf("store: wal segment %s: %w", segName(first), err)
		}
		if torn && last {
			// A torn tail is the expected signature of a crash (newest
			// segment) or of a failed Append the writer recovered from by
			// rotating (any segment); a zero tail is what a running
			// writer leaves (newest segment) or a crash inside a rotation
			// (any segment). Keep the consistent prefix; for the newest
			// segment also truncate the rest away, so that the directory
			// holds only records. Real corruption — a segment whose good
			// prefix does not connect to the next segment — fails the
			// continuity check below.
			if terr := os.Truncate(path, goodLen); terr != nil {
				return nil, nil, fmt.Errorf("store: truncating torn wal tail: %w", terr)
			}
		}
		if first > l.seq.Load()+1 {
			return nil, nil, fmt.Errorf("store: wal gap: segment %s starts after sequence %d", segName(first), l.seq.Load())
		}
		if lastSeq > l.seq.Load() {
			l.seq.Store(lastSeq)
		}
		rec.Tail = append(rec.Tail, events...)
	}
	rec.LastSeq = l.seq.Load()
	l.gc = newCommitter(l)
	go l.gc.run()
	l.gc.prepareSpare()
	return l, rec, nil
}

// Append logs events with sequences LastSeq+1..LastSeq+len(events) and
// returns once they are durable (written and, unless disabled, fsynced):
// EncodeRecords, AppendRecords, then Wait. A failed append rolls the disk
// back to what the last successful commit left — LastSeq is unchanged and
// no torn bytes survive — and is sticky: the log refuses every append and
// checkpoint until ResetFailed, so the caller re-logs what it lost first.
func (l *Log) Append(events []provgraph.Event) error {
	recs, err := EncodeRecords(events)
	if err != nil {
		return err
	}
	c, err := l.AppendRecords(recs)
	if err != nil {
		return err
	}
	return c.Wait()
}

// LastSeq returns the sequence of the last durable event: it advances only
// when a commit's write (and fsync, per policy) has completed.
func (l *Log) LastSeq() uint64 { return l.seq.Load() }

// CheckpointSeq returns the sequence covered by the newest checkpoint.
func (l *Log) CheckpointSeq() uint64 { return l.ckptSeq.Load() }

// Checkpoint atomically writes snap — which must equal replaying events
// 1..LastSeq — as the new checkpoint, then deletes the segments and older
// checkpoints it covers. The checkpoint is queued behind every pending
// commit and performed by the committer, so it covers exactly the events
// enqueued before it.
func (l *Log) Checkpoint(snap *Snapshot) error {
	c, err := l.gc.submit(commitOp{snap: snap})
	if err != nil {
		return err
	}
	return c.Wait()
}

// checkpointNow writes and installs the checkpoint; it runs on the
// committer goroutine.
func (l *Log) checkpointNow(snap *Snapshot) error {
	seq := l.seq.Load()
	final := filepath.Join(l.dir, ckptName(seq))
	tmp := final + walTempSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Write(f, snap); err != nil {
		_ = f.Close() // checkpoint temp is removed; the write error wins
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // checkpoint temp is removed; the sync error wins
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	// Until the directory is synced the rename may not survive a power
	// cut, so no segment the checkpoint covers may go before it is.
	if err := SyncDir(l.dir); err != nil {
		return err
	}
	// The checkpoint is durable; everything it covers is garbage. The
	// current segment's events are all <= seq (the committer runs appends
	// and checkpoints in queue order), so the whole segment set goes.
	if l.f != nil {
		// The durable checkpoint supersedes this whole segment set; the
		// files are deleted below, so flush/close failures are moot.
		_ = l.bw.Flush()
		_ = l.f.Close()
		l.f, l.bw = nil, nil
	}
	l.path, l.size = "", 0
	segs, ckpts, err := scanLogDir(l.dir)
	if err != nil {
		return err
	}
	for _, first := range segs {
		if first <= seq {
			os.Remove(filepath.Join(l.dir, segName(first)))
		}
	}
	for _, c := range ckpts {
		if c < seq {
			os.Remove(filepath.Join(l.dir, ckptName(c)))
		}
	}
	l.ckptSeq.Store(seq)
	return nil
}

// Close drains the committer (queued commits still complete), flushes and
// closes the active segment, and stops the log's goroutines. Close is
// idempotent.
func (l *Log) Close() error {
	c, err := l.gc.submit(commitOp{close: true})
	if err != nil {
		if errors.Is(err, ErrLogClosed) {
			return nil
		}
		return err
	}
	return c.Wait()
}

// readSegment decodes a segment's records, skipping events at or below
// skipThrough. It returns the decoded tail events, the last sequence
// seen, and the byte length of the consistent prefix. torn reports that
// bytes follow that prefix which are not records: a damaged or incomplete
// record (the expected crash signature) or a zero tail. The prefix is
// trustworthy either way. err is reserved for environmental or
// structural failures (unopenable file, wrong magic/version) where
// nothing about the content may be assumed and the caller must not
// repair destructively.
func readSegment(path string, wantFirst, skipThrough uint64) (events []provgraph.Event, lastSeq uint64, goodLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer func() { _ = f.Close() }() // opened read-only
	br := bufio.NewReader(f)

	head := make([]byte, len(walMagic)+1)
	if _, herr := io.ReadFull(br, head); herr != nil {
		if errors.Is(herr, io.EOF) || errors.Is(herr, io.ErrUnexpectedEOF) {
			// Crash during segment creation: a header-short file holds no
			// records; its consistent prefix is empty.
			return nil, wantFirst - 1, 0, true, nil
		}
		return nil, 0, 0, false, fmt.Errorf("segment header: %w", herr)
	}
	if !bytes.Equal(head[:len(walMagic)], walMagic) {
		return nil, 0, 0, false, fmt.Errorf("bad segment magic")
	}
	if head[len(walMagic)] != walVersion {
		return nil, 0, 0, false, fmt.Errorf("unsupported segment version %d", head[len(walMagic)])
	}
	firstSeq, herr := binary.ReadUvarint(br)
	if herr != nil {
		if errors.Is(herr, io.EOF) || errors.Is(herr, io.ErrUnexpectedEOF) {
			return nil, wantFirst - 1, 0, true, nil
		}
		return nil, 0, 0, false, fmt.Errorf("segment header: %w", herr)
	}
	if firstSeq != wantFirst {
		return nil, 0, 0, false, fmt.Errorf("segment header sequence %d does not match filename %d", firstSeq, wantFirst)
	}
	goodLen = int64(len(walMagic) + 1 + uvarintLen(firstSeq))

	seq := firstSeq - 1
	for {
		plen, rerr := binary.ReadUvarint(br)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return events, seq, goodLen, false, nil // clean end
			}
			return events, seq, goodLen, true, nil // torn length prefix
		}
		if plen == 0 || plen > maxLen {
			// No record is empty: a zero length is the zero tail an
			// extending commit wrote past its records, where the data ends.
			return events, seq, goodLen, true, nil
		}
		payload, rerr := readN(br, plen)
		if rerr != nil {
			return events, seq, goodLen, true, nil
		}
		var crc [4]byte
		if _, rerr := io.ReadFull(br, crc[:]); rerr != nil {
			return events, seq, goodLen, true, nil
		}
		if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(payload) {
			return events, seq, goodLen, true, nil
		}
		ev, rerr := newReader(bytes.NewReader(payload)).event()
		if rerr != nil {
			return events, seq, goodLen, true, nil
		}
		seq++
		goodLen += int64(uvarintLen(plen)) + int64(plen) + 4
		if seq > skipThrough {
			events = append(events, ev)
		}
	}
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", walSegPrefix, firstSeq, walSegSuffix)
}

func ckptName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix)
}

// scanLogDir lists segment first-sequences and checkpoint sequences, both
// ascending. It only reads the directory: readers call it beside a live
// committer, whose temp files (a checkpoint being written, the spare
// segment) must survive the listing.
func scanLogDir(dir string) (segs, ckpts []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasPrefix(name, walSegPrefix) && strings.HasSuffix(name, walSegSuffix):
			if n, perr := parseSeq(name, walSegPrefix, walSegSuffix); perr == nil {
				segs = append(segs, n)
			}
		case strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix):
			if n, perr := parseSeq(name, ckptPrefix, ckptSuffix); perr == nil {
				ckpts = append(ckpts, n)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	return segs, ckpts, nil
}

// SyncDir fsyncs directory dir, making the names created, renamed or
// removed in it durable: a file's own fsync covers its bytes, not the
// directory entry that finds it again after a power cut. It consults the
// "dir.sync" failpoint first.
func SyncDir(dir string) error {
	if err := faultinject.Err("dir.sync"); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// removeTempFiles deletes the temp files a crash left behind: a
// checkpoint that was never renamed into place, an unused spare segment.
// Only OpenLog calls it, before its committer starts.
func removeTempFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), walTempSuffix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

func parseSeq(name, prefix, suffix string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
}
