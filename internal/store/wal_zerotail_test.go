package store

import (
	"bytes"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lipstick/internal/faultinject"
	"lipstick/internal/provgraph"
	"lipstick/internal/testutil"
)

// The tests in this file cover the states the zero-filled extent adds
// to a WAL directory: the zero tail a running log leaves on its active
// segment (what a kill leaves behind), a torn record in front of it, a
// zero tail on an earlier segment (a crash inside a rotation), readers
// beside extending commits, a failed extending commit, and the closed
// log, which must end every segment at its last record.

// killCopy copies the regular files of a live log's directory into a
// fresh directory: the state a process kill leaves at this moment.
func killCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), walTempSuffix) {
			continue // a kill's temp files are swept by OpenLog anyway
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// segmentState is one segment's file size beside the length of its
// records (readSegment's consistent prefix).
type segmentState struct {
	first         uint64
	size, logical int64
	trailingBytes bool // bytes past the records: a torn record or zeros
}

func segmentStates(t *testing.T, dir string) []segmentState {
	t.Helper()
	segs, _, err := scanLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []segmentState
	for _, first := range segs {
		path := filepath.Join(dir, segName(first))
		_, _, goodLen, torn, err := readSegment(path, first, 0)
		if err != nil {
			t.Fatalf("segment %d: %v", first, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, segmentState{first, fi.Size(), goodLen, torn})
	}
	return out
}

// appendBatches appends events in batches of n, one commit each.
func appendBatches(t *testing.T, l *Log, events []provgraph.Event, n int) {
	t.Helper()
	for i := 0; i < len(events); i += n {
		if err := l.Append(events[i:min(i+n, len(events))]); err != nil {
			t.Fatalf("append at %d: %v", i, err)
		}
	}
}

func assertRecovers(t *testing.T, rec *Recovery, want []provgraph.Event) {
	t.Helper()
	if rec.LastSeq != uint64(len(want)) || int(rec.CheckpointSeq)+len(rec.Tail) != len(want) {
		t.Fatalf("recovered checkpoint %d + %d events to seq %d, want %d", rec.CheckpointSeq, len(rec.Tail), rec.LastSeq, len(want))
	}
	for i, ev := range rec.Tail {
		if ev != want[int(rec.CheckpointSeq)+i] {
			t.Fatalf("event %d recovered as %+v, want %+v", int(rec.CheckpointSeq)+i+1, ev, want[int(rec.CheckpointSeq)+i])
		}
	}
}

func TestWALZeroTailRecovered(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(60)
	l, _ := openLogT(t, dir)
	appendBatches(t, l, events[:50], 10)

	// The running log's segment is zero-filled past its records.
	crashed := killCopy(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := segmentStates(t, crashed)
	if len(st) != 1 || !st[0].trailingBytes || st[0].size <= st[0].logical {
		t.Fatalf("running segment %+v, want a zero tail past its records", st)
	}
	logical := st[0].logical

	l2, rec := openLogT(t, crashed)
	assertRecovers(t, rec, events[:50])
	if st := segmentStates(t, crashed); st[0].size != logical || st[0].trailingBytes {
		t.Fatalf("recovered segment %+v, want it cut to its %d bytes of records", st[0], logical)
	}
	if err := l2.Append(events[50:]); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = openLogT(t, crashed)
	assertRecovers(t, rec, events)
}

func TestWALTornRecordBeforeZeroTail(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(30)
	l, _ := openLogT(t, dir)
	appendBatches(t, l, events[:20], 5)
	crashed := killCopy(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Dying mid-write over the zeroed extent leaves half a frame with
	// zeros behind it.
	st := segmentStates(t, crashed)
	recs, err := EncodeRecords(events[20:21])
	if err != nil {
		t.Fatal(err)
	}
	frame := recs.buf[:recs.end(0)]
	f, err := os.OpenFile(filepath.Join(crashed, segName(st[0].first)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(frame[:len(frame)-2], st[0].logical); err != nil {
		t.Fatal(err)
	}
	recs.Recycle()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openLogT(t, crashed)
	assertRecovers(t, rec, events[:20])
	if after := segmentStates(t, crashed); after[0].size != st[0].logical {
		t.Fatalf("recovered segment is %d bytes, want its %d bytes of records", after[0].size, st[0].logical)
	}
	appendBatches(t, l2, events[20:], 5)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = openLogT(t, crashed)
	assertRecovers(t, rec, events)
}

// TestWALZeroTailOnEarlierSegment: a crash between a rotation's truncate
// and its sync can leave the old segment's zero tail on disk beside the
// next segment. Recovery reads the old segment up to its zeros and
// crosses to the next one.
func TestWALZeroTailOnEarlierSegment(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(40)
	writeSegment(t, dir, 1, events[:25])
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	writeSegment(t, dir, 26, events[25:35])

	l, rec := openLogT(t, dir)
	assertRecovers(t, rec, events[:35])
	if err := l.Append(events[35:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = openLogT(t, dir)
	assertRecovers(t, rec, events)
}

// TestWALEventsSinceDuringExtendingCommits streams the log while a
// writer commits into small segments, so that most segments see an
// extending commit and a rotation that cuts its zero tail. Every read
// returns at least what was durable when it started, exactly the
// appended events, and nothing decoded from zeros.
func TestWALEventsSinceDuringExtendingCommits(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(1200)
	l, _ := openLogT(t, dir, WithSegmentLimit(2<<10))

	var done atomic.Bool
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			durable := l.LastSeq()
			got, err := l.EventsSince(0, 0)
			if err != nil {
				readErr = err
				return
			}
			if uint64(len(got)) < durable || len(got) > len(events) {
				readErr = errors.New("EventsSince returned fewer events than were durable")
				return
			}
			for i := range got {
				if got[i] != events[i] {
					readErr = errors.New("EventsSince returned an event that was never appended")
					return
				}
			}
		}
	}()
	appendBatches(t, l, events, 12)
	done.Store(true)
	wg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	got, err := l.EventsSince(0, 0)
	if err != nil || len(got) != len(events) {
		t.Fatalf("final EventsSince: %d events, %v; want %d", len(got), err, len(events))
	}
	if st := segmentStates(t, dir); len(st) < 4 {
		t.Fatalf("%d segments, want several rotations", len(st))
	}
}

// TestWALFsyncFaultOnExtendingCommit fails the sync of commits that
// also write a zero chunk: the first commit into a fresh segment, and a
// commit whose records run past the entry segment's zeroed extent. Each
// rolls back, the caller re-logs after ResetFailed, and every
// acknowledged event recovers.
func TestWALFsyncFaultOnExtendingCommit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	defer faultinject.Reset()
	dir := t.TempDir()
	// Enough records to run past one zero chunk: about 12 bytes each.
	events := chainEvents(zeroChunkBytes/8 + 20)
	l, _ := openLogT(t, dir)

	faultinject.Arm("wal.fsync", faultinject.Fault{Err: errDiskFault, Count: 1})
	if err := l.Append(events[:10]); !errors.Is(err, errDiskFault) {
		t.Fatalf("first commit under a failing sync: %v, want the injected fault", err)
	}
	if segs, _, _ := scanLogDir(dir); len(segs) != 0 {
		t.Fatalf("the failed first commit left segments %v", segs)
	}
	l.ResetFailed()
	appendBatches(t, l, events[:20], 10)
	before := segmentStates(t, dir)

	faultinject.Arm("wal.fsync", faultinject.Fault{Err: errDiskFault, Count: 1})
	if err := l.Append(events[20:]); !errors.Is(err, errDiskFault) {
		t.Fatalf("extending commit under a failing sync: %v, want the injected fault", err)
	}
	if l.LastSeq() != 20 {
		t.Fatalf("failed commit moved LastSeq to %d, want 20", l.LastSeq())
	}
	after := segmentStates(t, dir)
	if len(after) != 1 || after[0].size != before[0].logical || after[0].trailingBytes {
		t.Fatalf("rolled-back segment %+v, want it cut back to its %d bytes of records", after, before[0].logical)
	}
	l.ResetFailed()
	if err := l.Append(events[20:]); err != nil {
		t.Fatalf("re-log after the fault: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openLogT(t, dir)
	assertRecovers(t, rec, events)
}

// TestWALZeroTailGrowsWithTheSegment: a commit that runs past the
// zeroed extent zeros as many bytes as the segment holds, up to
// zeroChunkBytes. A short stream's file then stays within twice its
// records, and a long one pays an extending commit about once per
// doubling and then once per chunk, not once per commit. The records'
// length is read off a twin log with fsync (and so zeros) off.
func TestWALZeroTailGrowsWithTheSegment(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	events := chainEvents(5 * zeroChunkBytes / 24) // about 2.5 MiB of records
	synced, unsynced := t.TempDir(), t.TempDir()
	ls, _ := openLogT(t, synced, WithSegmentLimit(1<<30))
	lu, _ := openLogT(t, unsynced, WithSegmentLimit(1<<30), WithFsync(false))
	sizeOf := func(dir string) int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	var first, size, logical int64
	commits, extensions := 0, 0
	for i, n := 0, 10; i < len(events); i, n = i+n, 4000 {
		batch := events[i:min(i+n, len(events))]
		for _, l := range []*Log{ls, lu} {
			if err := l.Append(batch); err != nil {
				t.Fatalf("append at %d: %v", i, err)
			}
		}
		commits++
		logical = sizeOf(unsynced)
		if first == 0 {
			first = logical
		}
		got := sizeOf(synced)
		if got <= logical || got > 2*logical || got > logical+zeroChunkBytes {
			t.Fatalf("after %d bytes of records the segment holds %d, want a zero tail of at most min(%d, %d) bytes",
				logical, got, logical, zeroChunkBytes)
		}
		if got != size {
			extensions++
			size = got
		}
	}
	maxExt := bits.Len64(uint64(zeroChunkBytes/first)) + int(logical/zeroChunkBytes) + 1
	t.Logf("%d of %d commits extended the segment (bound %d)", extensions, commits, maxExt)
	if extensions > maxExt {
		t.Fatalf("%d of %d commits extended the segment, want at most %d", extensions, commits, maxExt)
	}
}

// TestWALClosedSegmentsEndAtLastRecord: a rotated-away segment and, after
// Close, every segment ends at its last record, and the closed
// directory is byte-identical to what the same commits leave with fsync
// (and so the zero tail) off.
func TestWALClosedSegmentsEndAtLastRecord(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	events := chainEvents(400)
	dirs := map[bool]string{}
	for _, fsync := range []bool{true, false} {
		dir := t.TempDir()
		dirs[fsync] = dir
		l, _ := openLogT(t, dir, WithSegmentLimit(1<<10), WithFsync(fsync))
		appendBatches(t, l, events, 16)
		st := segmentStates(t, dir)
		if len(st) < 3 {
			t.Fatalf("%d segments, want rotations", len(st))
		}
		for _, s := range st[:len(st)-1] {
			if s.size != s.logical || s.trailingBytes {
				t.Fatalf("fsync=%v: rotated segment %+v does not end at its last record", fsync, s)
			}
		}
		if last := st[len(st)-1]; fsync && last.size == last.logical {
			t.Fatalf("active segment %+v has no zero tail", last)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for _, s := range segmentStates(t, dir) {
			if s.size != s.logical || s.trailingBytes {
				t.Fatalf("fsync=%v: closed segment %+v does not end at its last record", fsync, s)
			}
		}
	}
	synced, unsynced := segmentBytes(t, dirs[true]), segmentBytes(t, dirs[false])
	if !bytes.Equal(synced, unsynced) {
		t.Fatalf("closed log with zero tails (%d bytes) differs from the append-only one (%d bytes)", len(synced), len(unsynced))
	}
}

// segmentBytes concatenates a directory's segments, each behind its
// name, in name order.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, _, err := scanLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, first := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segName(first)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(append(all, segName(first)...), data...)
	}
	return all
}
