package core

import (
	"errors"
	"testing"

	"lipstick/internal/faultinject"
	"lipstick/internal/store"
	"lipstick/internal/testutil"
)

// TestLiveGraphRidesThroughInjectedFsyncFault drives the documented
// group-commit failure contract end to end with a real injected disk
// fault instead of a hand-closed file descriptor: the faulted append
// reports the error, the log is sticky-failed underneath, and the next
// append re-logs the lost suffix (flushBacklog + ResetFailed) so
// recovery sees every acked event exactly once.
func TestLiveGraphRidesThroughInjectedFsyncFault(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	defer faultinject.Reset()
	batch, events := captureDealership(t, 40, 2)
	dir := t.TempDir()
	lg, err := OpenLiveGraph("d", dir, WithLogOptions(store.WithFsync(true)))
	if err != nil {
		t.Fatal(err)
	}
	mid := uint64(len(events) / 2)
	if _, err := lg.Append(1, events[:mid]); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected fsync fault")
	faultinject.Arm("wal.fsync", faultinject.Fault{Err: injected, Count: 1})
	if _, err := lg.Append(mid+1, events[mid:mid+8]); err == nil {
		t.Fatal("append over a failing fsync succeeded")
	} else if !errors.Is(err, injected) {
		t.Fatalf("append error = %v, want the injected fault", err)
	}

	// The fault has passed (Count: 1); the next append must heal the log
	// (re-log the rolled-back suffix, clear the sticky failure) and land.
	if _, err := lg.Append(mid+9, events[mid+8:]); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	if lg.Seq() != uint64(len(events)) {
		t.Fatalf("seq = %d, want %d", lg.Seq(), len(events))
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := OpenLiveGraph("d", dir)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer func() {
		if err := restored.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if restored.Seq() != uint64(len(events)) {
		t.Fatalf("recovered seq = %d, want %d (no acked event may be lost)", restored.Seq(), len(events))
	}
	if err := restored.Read(func(qp *QueryProcessor) error {
		if !batch.StructurallyEqual(qp.Graph()) {
			t.Fatal("recovered graph differs from the batch build")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
