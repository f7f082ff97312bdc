package store

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lipstick/internal/faultinject"
	"lipstick/internal/provgraph"
	"lipstick/internal/testutil"
)

// errDiskFault is the injected failure the fsync tests look for.
var errDiskFault = errors.New("injected disk fault")

// logModes runs each fault scenario under the two committer tunings. The
// names are the ones these suites have always used: "serial" is the
// library default (the committer takes everything queued, up to
// DefaultGroupCommitBytes, as soon as it is free), "group" a 1-byte cap
// that gives every batch its own commit, so a fault never spans two
// batches' records. Both share the wal.write/wal.fsync/wal.slow
// failpoints.
var logModes = []struct {
	name string
	opts []LogOption
}{
	{"serial", []LogOption{WithFsync(true)}},
	{"group", []LogOption{WithFsync(true), WithGroupCommit(0, 1)}},
}

func TestWALFsyncFaultRollsBackAndResumes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, mode := range logModes {
		t.Run(mode.name, func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			events := chainEvents(10)
			l, _ := openLogT(t, dir, mode.opts...)
			if err := l.Append(events[:5]); err != nil {
				t.Fatal(err)
			}
			faultinject.Arm("wal.fsync", faultinject.Fault{Err: errDiskFault, Count: 1})
			if err := l.Append(events[5:]); err == nil {
				t.Fatal("append with a failing fsync succeeded")
			}
			if l.LastSeq() != 5 {
				t.Fatalf("failed append moved LastSeq to %d, want 5", l.LastSeq())
			}
			// The failure is sticky: appends are refused until the caller
			// re-logs lost events and calls ResetFailed.
			if l.Failed() == nil {
				t.Fatal("fsync fault did not stick")
			}
			if err := l.Append(events[5:]); err == nil || !strings.Contains(err.Error(), "wal is failed") {
				t.Fatalf("append on failed log: %v, want the ResetFailed hint", err)
			}
			l.ResetFailed()
			if l.Failed() != nil {
				t.Fatal("ResetFailed left the log failed")
			}
			if err := l.Append(events[5:]); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := openLogT(t, dir)
			if rec.LastSeq != 10 || len(rec.Tail) != 10 {
				t.Fatalf("recovered %d events to seq %d, want 10/10", len(rec.Tail), rec.LastSeq)
			}
		})
	}
}

func TestWALTornWriteCrashLeavesRecoverableTail(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, mode := range logModes {
		t.Run(mode.name, func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			events := chainEvents(8)
			l, _ := openLogT(t, dir, mode.opts...)
			if err := l.Append(events[:6]); err != nil {
				t.Fatal(err)
			}
			// A torn write models dying mid-record: half a frame reaches the
			// disk and no rollback runs. The injected error must say so.
			faultinject.Arm("wal.write", faultinject.Fault{Torn: true, Count: 1})
			err := l.Append(events[6:7])
			if err == nil || !faultinject.IsCrash(err) {
				t.Fatalf("torn append error = %v, want a simulated crash", err)
			}
			_ = l.Close() // the crashed process cannot close cleanly; stop goroutines only

			l2, rec := openLogT(t, dir, mode.opts...)
			if rec.LastSeq != 6 || len(rec.Tail) != 6 {
				t.Fatalf("recovered %d events to seq %d, want the acked prefix 6/6", len(rec.Tail), rec.LastSeq)
			}
			// The truncated log resumes exactly where durability ended.
			if err := l2.Append(events[6:]); err != nil {
				t.Fatalf("append after torn-tail recovery: %v", err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec2 := openLogT(t, dir)
			if rec2.LastSeq != 8 || len(rec2.Tail) != 8 {
				t.Fatalf("final recovery %d/%d, want 8/8", len(rec2.Tail), rec2.LastSeq)
			}
		})
	}
}

func TestWALSlowDiskFaultOnlyDelays(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, mode := range logModes {
		t.Run(mode.name, func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			events := chainEvents(4)
			l, _ := openLogT(t, dir, mode.opts...)
			faultinject.Arm("wal.slow", faultinject.Fault{Delay: 2 * time.Millisecond, Count: 1}) // drag, no error
			if err := l.Append(events); err != nil {
				t.Fatalf("slow-disk append failed: %v", err)
			}
			if l.LastSeq() != 4 {
				t.Fatalf("LastSeq = %d, want 4", l.LastSeq())
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWALCoalescesWhileCommitterBusy pins the committer's only grouping:
// with no gather window, batches queued while a commit is in flight
// become the next commit. The first commit is held on the delay-only
// wal.slow point; the 8 batches queued behind it must share at most one
// more commit, and every event must recover.
func TestWALCoalescesWhileCommitterBusy(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	defer faultinject.Reset()
	const batches, per = 9, 4
	dir := t.TempDir()
	events := chainEvents(batches * per)
	l, _ := openLogT(t, dir)
	faultinject.Arm("wal.slow", faultinject.Fault{Delay: 200 * time.Millisecond, Count: 1})
	submit := func(b int) *Commit {
		recs, err := EncodeRecords(events[b*per : (b+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		c, err := l.AppendRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	commits := []*Commit{submit(0)}
	// The point disarms itself as the committer fires it, so once it is
	// gone the first commit is asleep inside the write.
	for len(faultinject.Active()) > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	for b := 1; b < batches; b++ {
		commits = append(commits, submit(b))
	}
	for _, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := l.GroupStats()
	if st.Batches != batches || st.Commits > 2 {
		t.Fatalf("%d batches in %d commits, want %d batches in at most 2", st.Batches, st.Commits, batches)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openLogT(t, dir)
	if rec.LastSeq != uint64(len(events)) || len(rec.Tail) != len(events) {
		t.Fatalf("recovered %d events to seq %d, want %d", len(rec.Tail), rec.LastSeq, len(events))
	}
	for i := range events {
		if rec.Tail[i] != events[i] {
			t.Fatalf("event %d recovered as %+v, want %+v", i+1, rec.Tail[i], events[i])
		}
	}
}

// TestWALDirSyncFaultFailsRotationAndCheckpoint: a failing directory
// fsync fails the commit that rotated into a new segment and the
// checkpoint whose rename it would have made durable, and the log
// recovers every acknowledged event afterwards.
func TestWALDirSyncFaultFailsRotationAndCheckpoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	defer faultinject.Reset()
	dir := t.TempDir()
	events := chainEvents(60)
	l, _ := openLogT(t, dir, WithSegmentLimit(64))
	if err := l.Append(events[:20]); err != nil {
		t.Fatal(err)
	}
	// The first segment is past its limit, so the next commit rotates.
	faultinject.Arm("dir.sync", faultinject.Fault{Err: errDiskFault, Count: 1})
	if err := l.Append(events[20:30]); !errors.Is(err, errDiskFault) {
		t.Fatalf("append rotating under a failing dir sync: %v, want the injected fault", err)
	}
	if l.LastSeq() != 20 {
		t.Fatalf("failed rotation moved LastSeq to %d, want 20", l.LastSeq())
	}
	l.ResetFailed()
	if err := l.Append(events[20:30]); err != nil {
		t.Fatalf("append after the fault: %v", err)
	}

	g, err := provgraph.Replay(events[:30])
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm("dir.sync", faultinject.Fault{Err: errDiskFault, Count: 1})
	if err := l.Checkpoint(&Snapshot{Graph: g}); !errors.Is(err, errDiskFault) {
		t.Fatalf("checkpoint under a failing dir sync: %v, want the injected fault", err)
	}
	if l.CheckpointSeq() != 0 {
		t.Fatalf("failed checkpoint recorded seq %d", l.CheckpointSeq())
	}
	if segs, _, err := scanLogDir(dir); err != nil || len(segs) == 0 {
		t.Fatalf("failed checkpoint compacted the segments: %v %v", segs, err)
	}
	if err := l.Append(events[30:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openLogT(t, dir)
	if rec.LastSeq != 60 || int(rec.CheckpointSeq)+len(rec.Tail) != 60 {
		t.Fatalf("recovered checkpoint %d + %d tail events to seq %d, want 60", rec.CheckpointSeq, len(rec.Tail), rec.LastSeq)
	}
	restored := provgraph.New()
	if rec.Snapshot != nil {
		restored = rec.Snapshot.Graph
	}
	for i := range rec.Tail {
		if err := provgraph.Apply(restored, &rec.Tail[i]); err != nil {
			t.Fatalf("tail event %d: %v", i, err)
		}
	}
	if want, _ := provgraph.Replay(events); !want.StructurallyEqual(restored) {
		t.Fatal("recovered log differs from a replay of every acknowledged event")
	}
}
