package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
	"lipstick/internal/testutil"
)

// chainEvents builds n valid consecutive events (a growing node chain).
func chainEvents(n int) []provgraph.Event {
	events := make([]provgraph.Event, 0, n)
	nodes := 0
	for len(events) < n {
		ev := provgraph.Event{Kind: provgraph.EvAddNode, Node: provgraph.Node{
			ID: provgraph.NodeID(nodes), Class: provgraph.ClassP,
			Type: provgraph.TypeBaseTuple, Label: "tok", Inv: -1,
		}}
		events = append(events, ev)
		nodes++
		if nodes >= 2 && len(events) < n {
			events = append(events, provgraph.Event{
				Kind: provgraph.EvAddEdge,
				Src:  provgraph.NodeID(nodes - 2), Dst: provgraph.NodeID(nodes - 1),
			})
		}
	}
	return events
}

// openLogT opens a log and closes it when the test ends (Close is
// idempotent), so the committer never outlives the test. A test that
// simulates a kill reopens the directory before this Close runs.
func openLogT(t *testing.T, dir string, opts ...LogOption) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := OpenLog(dir, opts...)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, rec
}

// writeSegment writes events as segment wal-<first>, framed the way the
// committer frames them.
func writeSegment(t *testing.T, dir string, first uint64, events []provgraph.Event) {
	t.Helper()
	recs, err := EncodeRecords(events)
	if err != nil {
		t.Fatal(err)
	}
	defer recs.Recycle()
	buf := append(segmentHeader(first), recs.buf...)
	if err := os.WriteFile(filepath.Join(dir, segName(first)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWALAppendRecover(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(100)
	l, rec := openLogT(t, dir)
	if rec.LastSeq != 0 || rec.Snapshot != nil || len(rec.Tail) != 0 {
		t.Fatalf("fresh log recovered non-empty state: %+v", rec)
	}
	if err := l.Append(events[:60]); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Append(events[60:]); err != nil {
		t.Fatalf("append: %v", err)
	}
	if l.LastSeq() != 100 {
		t.Fatalf("LastSeq = %d, want 100", l.LastSeq())
	}
	// Simulated kill: no Close. Reopen and compare the tail.
	_, rec = openLogT(t, dir)
	if rec.LastSeq != 100 || len(rec.Tail) != 100 {
		t.Fatalf("recovered LastSeq=%d tail=%d, want 100/100", rec.LastSeq, len(rec.Tail))
	}
	want, err := provgraph.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := provgraph.Replay(rec.Tail)
	if err != nil {
		t.Fatalf("replaying recovered tail: %v", err)
	}
	if !want.StructurallyEqual(got) {
		t.Fatal("recovered tail replays to a different graph")
	}
}

func TestWALSegmentRotation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	l, _ := openLogT(t, dir, WithSegmentLimit(256), WithFsync(false))
	events := chainEvents(200)
	for i := 0; i < len(events); i += 10 {
		if err := l.Append(events[i : i+10]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	segs, _, err := scanLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	_, rec := openLogT(t, dir)
	if rec.LastSeq != 200 || len(rec.Tail) != 200 {
		t.Fatalf("recovered %d/%d, want 200/200", rec.LastSeq, len(rec.Tail))
	}
}

func TestWALCheckpointCompaction(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(150)
	l, _ := openLogT(t, dir, WithSegmentLimit(256), WithFsync(false))
	if err := l.Append(events[:90]); err != nil {
		t.Fatal(err)
	}
	g, err := provgraph.Replay(events[:90])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(&Snapshot{Graph: g}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	segs, ckpts, err := scanLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("checkpoint left %d uncompacted segments", len(segs))
	}
	if len(ckpts) != 1 || ckpts[0] != 90 {
		t.Fatalf("checkpoints = %v, want [90]", ckpts)
	}
	if err := l.Append(events[90:]); err != nil {
		t.Fatal(err)
	}

	_, rec := openLogT(t, dir)
	if rec.Snapshot == nil || rec.CheckpointSeq != 90 {
		t.Fatalf("recovery missed the checkpoint: seq=%d", rec.CheckpointSeq)
	}
	if rec.LastSeq != 150 || len(rec.Tail) != 60 {
		t.Fatalf("recovered LastSeq=%d tail=%d, want 150/60", rec.LastSeq, len(rec.Tail))
	}
	// Checkpoint + tail equals the full replay.
	restored := rec.Snapshot.Graph
	for i, ev := range rec.Tail {
		if err := provgraph.Apply(restored, &ev); err != nil {
			t.Fatalf("tail event %d: %v", i, err)
		}
	}
	want, err := provgraph.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	if !want.StructurallyEqual(restored) {
		t.Fatal("checkpoint+tail differs from full replay")
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(40)
	l, _ := openLogT(t, dir, WithFsync(false))
	if err := l.Append(events); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanLogDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (err %v)", segs, err)
	}
	path := filepath.Join(dir, segName(segs[0]))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a truncated final record.
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, rec := openLogT(t, dir)
	if rec.LastSeq != 39 || len(rec.Tail) != 39 {
		t.Fatalf("recovered LastSeq=%d tail=%d, want 39/39", rec.LastSeq, len(rec.Tail))
	}
	// The torn record was truncated away; re-appending the lost event and
	// reopening yields the full stream.
	if err := l2.Append(events[39:]); err != nil {
		t.Fatal(err)
	}
	_, rec = openLogT(t, dir)
	if rec.LastSeq != 40 || len(rec.Tail) != 40 {
		t.Fatalf("after repair: LastSeq=%d tail=%d, want 40/40", rec.LastSeq, len(rec.Tail))
	}
}

func TestWALCorruptMiddleSegmentFails(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	l, _ := openLogT(t, dir, WithSegmentLimit(128), WithFsync(false))
	if err := l.Append(chainEvents(100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanLogDir(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %v (err %v)", segs, err)
	}
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff // corrupt a CRC in a non-final segment
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The good prefix of the damaged segment no longer connects to the
	// next segment's first sequence: recovery must refuse, not drop data.
	if _, _, err := OpenLog(dir); err == nil || !strings.Contains(err.Error(), "wal gap") {
		t.Fatalf("OpenLog accepted a corrupt middle segment (err = %v)", err)
	}
}

// TestWALOverlappingSegmentsDedupe covers the failed-Append retry
// signature: a failed batch may leave some records durable in the old
// segment while the retry re-writes them into a fresh segment, so two
// segments can carry overlapping sequences. Recovery must apply each
// sequence exactly once.
func TestWALOverlappingSegmentsDedupe(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(25)
	l, _ := openLogT(t, dir, WithFsync(false))
	if err := l.Append(events[:20]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Craft the retry's fresh segment starting inside the first one:
	// wal-16 carries sequences 16..25 while wal-1 carries 1..20.
	writeSegment(t, dir, 16, events[15:])
	segs, _, err := scanLogDir(dir)
	if err != nil || len(segs) != 2 || segs[1] != 16 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}

	_, rec := openLogT(t, dir)
	if rec.LastSeq != 25 || len(rec.Tail) != 25 {
		t.Fatalf("recovered %d/%d, want 25/25 (overlap not deduped)", rec.LastSeq, len(rec.Tail))
	}
	want, err := provgraph.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := provgraph.Replay(rec.Tail)
	if err != nil {
		t.Fatalf("replaying deduped tail: %v", err)
	}
	if !want.StructurallyEqual(got) {
		t.Fatal("deduped recovery differs from the source stream")
	}
}

// TestWALHeaderShortSegmentRecovers covers a crash during segment
// creation: a next segment whose header never finished holds no records
// and must not block recovery.
func TestWALHeaderShortSegmentRecovers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(12)
	l, _ := openLogT(t, dir, WithFsync(false))
	if err := l.Append(events[:10]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stub := filepath.Join(dir, segName(11))
	if err := os.WriteFile(stub, []byte("LP"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openLogT(t, dir)
	if rec.LastSeq != 10 || len(rec.Tail) != 10 {
		t.Fatalf("recovered %d/%d, want 10/10", rec.LastSeq, len(rec.Tail))
	}
	if err := l2.Append(events[10:]); err != nil {
		t.Fatal(err)
	}
	_, rec = openLogT(t, dir)
	if rec.LastSeq != 12 || len(rec.Tail) != 12 {
		t.Fatalf("after resume: %d/%d, want 12/12", rec.LastSeq, len(rec.Tail))
	}
}

// TestWALAppendFailureRollsBack pins the failed-Append contract: LastSeq
// is unchanged, the log is failed until ResetFailed, and the segment is
// abandoned, so the retry starts a fresh segment at the same sequence.
func TestWALAppendFailureRollsBack(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(10)
	l, _ := openLogT(t, dir, WithFsync(false))
	if err := l.Append(events[:5]); err != nil {
		t.Fatal(err)
	}
	// Force the active segment's file descriptor to fail writes. The
	// committer is idle: it touched l.f before completing the commit the
	// test waited for, and touches it again only for the next one.
	if err := l.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(events[5:]); err == nil {
		t.Fatal("append on a closed segment should fail")
	}
	if l.LastSeq() != 5 {
		t.Fatalf("failed append moved LastSeq to %d, want 5", l.LastSeq())
	}
	if l.Failed() == nil {
		t.Fatal("failed append did not stick")
	}
	l.ResetFailed()
	// The retry succeeds on a fresh segment and recovery sees one copy.
	if err := l.Append(events[5:]); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanLogDir(dir)
	if err != nil || len(segs) != 2 || segs[0] != 1 || segs[1] != 6 {
		t.Fatalf("segments %v (err %v), want the retry in a fresh wal-6", segs, err)
	}
	_, rec := openLogT(t, dir)
	if rec.LastSeq != 10 || len(rec.Tail) != 10 {
		t.Fatalf("recovered %d/%d, want 10/10", rec.LastSeq, len(rec.Tail))
	}
}

func TestWALGroupCommitAppendRecover(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(120)
	l, rec := openLogT(t, dir)
	if rec.LastSeq != 0 {
		t.Fatalf("fresh log at seq %d", rec.LastSeq)
	}
	for i := 0; i < len(events); i += 30 {
		if err := l.Append(events[i : i+30]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if l.LastSeq() != 120 {
		t.Fatalf("LastSeq = %d, want 120", l.LastSeq())
	}
	gs := l.GroupStats()
	if gs.Commits < 1 || gs.Batches < 4 {
		t.Fatalf("group stats = %+v, want >= 1 commit covering 4 batches", gs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_, rec = openLogT(t, dir)
	if rec.LastSeq != 120 || len(rec.Tail) != 120 {
		t.Fatalf("recovered %d/%d, want 120/120", rec.LastSeq, len(rec.Tail))
	}
	want, err := provgraph.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := provgraph.Replay(rec.Tail)
	if err != nil {
		t.Fatalf("replaying recovered tail: %v", err)
	}
	if !want.StructurallyEqual(got) {
		t.Fatal("group-committed log replays to a different graph")
	}
}

func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// Concurrent writers share one committer; every batch must land
	// exactly once, in some serialization of the submit order.
	dir := t.TempDir()
	l, _ := openLogT(t, dir)
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ev := provgraph.Event{Kind: provgraph.EvKill, Src: provgraph.NodeID(w*perWriter + i)}
				if err := l.Append([]provgraph.Event{ev}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.LastSeq() != writers*perWriter {
		t.Fatalf("LastSeq = %d, want %d", l.LastSeq(), writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openLogT(t, dir)
	if len(rec.Tail) != writers*perWriter {
		t.Fatalf("recovered %d events, want %d", len(rec.Tail), writers*perWriter)
	}
	seen := make(map[provgraph.NodeID]bool)
	for _, ev := range rec.Tail {
		if ev.Kind != provgraph.EvKill || seen[ev.Src] {
			t.Fatalf("event %+v duplicated or mangled", ev)
		}
		seen[ev.Src] = true
	}
}

func TestWALGroupCommitRotationCheckpoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(150)
	l, _ := openLogT(t, dir, WithSegmentLimit(256), WithFsync(false))
	if err := l.Append(events[:90]); err != nil {
		t.Fatal(err)
	}
	g, err := provgraph.Replay(events[:90])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(&Snapshot{Graph: g}); err != nil {
		t.Fatalf("checkpoint through committer: %v", err)
	}
	if l.CheckpointSeq() != 90 {
		t.Fatalf("CheckpointSeq = %d, want 90", l.CheckpointSeq())
	}
	if err := l.Append(events[90:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// No spare/temp leftovers survive Close.
	leftovers, err := filepath.Glob(filepath.Join(dir, "*"+walTempSuffix))
	if err != nil || len(leftovers) != 0 {
		t.Fatalf("temp leftovers after Close: %v (err %v)", leftovers, err)
	}
	_, rec := openLogT(t, dir)
	if rec.CheckpointSeq != 90 || rec.LastSeq != 150 || len(rec.Tail) != 60 {
		t.Fatalf("recovered ckpt=%d last=%d tail=%d, want 90/150/60",
			rec.CheckpointSeq, rec.LastSeq, len(rec.Tail))
	}
	restored := rec.Snapshot.Graph
	for i, ev := range rec.Tail {
		if err := provgraph.Apply(restored, &ev); err != nil {
			t.Fatalf("tail event %d: %v", i, err)
		}
	}
	want, err := provgraph.Replay(events)
	if err != nil {
		t.Fatal(err)
	}
	if !want.StructurallyEqual(restored) {
		t.Fatal("group-commit checkpoint+tail differs from full replay")
	}
}

func TestWALGroupCommitBarrierAndClose(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	l, _ := openLogT(t, dir)
	if err := l.Append(chainEvents(5)); err != nil {
		t.Fatal(err)
	}
	b, err := l.Barrier()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(chainEvents(5)); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if _, err := l.Barrier(); err == nil {
		t.Fatal("barrier after Close succeeded")
	}
}

// TestWALReadersKeepTempFiles pins that listing the directory has no side
// effects: a reader (EventsSince) or a checkpoint running beside the
// committer must not delete a temp file some other writer still owns.
// Only OpenLog sweeps temp files, before its committer starts.
func TestWALReadersKeepTempFiles(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	events := chainEvents(20)
	l, _ := openLogT(t, dir, WithFsync(false))
	if err := l.Append(events[:10]); err != nil {
		t.Fatal(err)
	}
	sentinel := filepath.Join(dir, ckptName(1000)+walTempSuffix)
	if err := os.WriteFile(sentinel, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.EventsSince(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatalf("EventsSince removed a temp file: %v", err)
	}
	g, err := provgraph.Replay(events[:10])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(&Snapshot{Graph: g}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatalf("Checkpoint removed a temp file it did not write: %v", err)
	}
	if err := l.Append(events[10:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openLogT(t, dir)
	if rec.CheckpointSeq != 10 || rec.LastSeq != 20 {
		t.Fatalf("recovered ckpt=%d last=%d, want 10/20", rec.CheckpointSeq, rec.LastSeq)
	}
	if _, err := os.Stat(sentinel); !os.IsNotExist(err) {
		t.Fatalf("OpenLog left a crashed writer's temp file behind (stat err %v)", err)
	}
}

// TestEncodeRecordsFraming holds EncodeRecords' in-place framing to the
// plain one: each payload encoded on its own, then binary.PutUvarint of
// its length, the payload, and its crc32. The payloads straddle the one-
// and two-byte length prefixes (127 and 128 bytes) and the two- and
// three-byte ones (large bag values past 16 KiB), where the in-place
// encoder widens its length slot and shifts the payload.
func TestEncodeRecordsFraming(t *testing.T) {
	var events []provgraph.Event
	// An EvSetValue of node 1 with an n-byte string has a payload of
	// 3 + uvarintLen(n) + n bytes: 127 and 128 for n = 123 and 124, 16383
	// and 16384 for n = 16378 and 16379.
	for _, n := range []int{0, 1, 123, 124, 125, 200, 16378, 16379, 16380} {
		events = append(events, provgraph.Event{Kind: provgraph.EvSetValue, Src: 1, Value: nested.Str(strings.Repeat("x", n))})
	}
	for _, rows := range []int{1, 700, 3000} {
		bag := nested.NewBag()
		for i := 0; i < rows; i++ {
			bag.Add(nested.NewTuple(nested.Int(int64(i)), nested.Str("dealer"), nested.Float(float64(i)/3)))
		}
		events = append(events, provgraph.Event{Kind: provgraph.EvSetValue, Src: 2, Value: nested.BagVal(bag)})
	}
	events = append(events, chainEvents(20)...)

	var want []byte
	var ends []int
	lens := map[int]bool{}
	for i := range events {
		var payload bytes.Buffer
		w := newWriter(&payload)
		w.event(&events[i])
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		lens[payload.Len()] = true
		var head [binary.MaxVarintLen64]byte
		want = append(want, head[:binary.PutUvarint(head[:], uint64(payload.Len()))]...)
		want = append(want, payload.Bytes()...)
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(payload.Bytes()))
		ends = append(ends, len(want))
	}
	for _, n := range []int{127, 128, 16383, 16384} {
		if !lens[n] {
			t.Fatalf("no payload of %d bytes among %v", n, lens)
		}
	}
	if largest := slices.Max(slices.Collect(maps.Keys(lens))); largest < 32<<10 {
		t.Fatalf("largest bag payload is %d bytes, want one past 32 KiB", largest)
	}

	// Twice: the second batch reuses the first's pooled buffer.
	for round := 0; round < 2; round++ {
		recs, err := EncodeRecords(events)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recs.buf, want) || !slices.Equal(recs.ends, ends) {
			t.Fatalf("round %d: EncodeRecords framing differs from PutUvarint framing", round)
		}
		recs.Recycle()
	}
}
