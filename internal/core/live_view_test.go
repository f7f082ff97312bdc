package core

import (
	"testing"
	"time"

	"lipstick/internal/store"
)

// TestLiveGraphReadYourWrites holds the one freshness rule on the default
// options: after each Append, and after each AppendAsync(...).Wait(), the
// view ReadView returns covers the stream position, and Read answers from
// that same view.
func TestLiveGraphReadYourWrites(t *testing.T) {
	_, events := captureDealership(t, 60, 2)
	durable, err := OpenLiveGraph("ryw", t.TempDir(), WithLogOptions(store.WithFsync(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for _, lg := range []*LiveGraph{NewLiveGraph("ryw"), durable} {
		const chunk = 41
		for next, i := 0, 0; next < len(events); next, i = next+chunk, i+1 {
			end := min(next+chunk, len(events))
			var err error
			if i%2 == 0 {
				_, err = lg.Append(uint64(next)+1, events[next:end])
			} else {
				_, err = lg.AppendAsync(uint64(next)+1, events[next:end]).Wait()
			}
			if err != nil {
				t.Fatal(err)
			}
			v := lg.ReadView()
			if v.Seq != uint64(end) {
				t.Fatalf("durable=%v: ReadView().Seq = %d after appending through %d", lg.Durable(), v.Seq, end)
			}
			if err := lg.Read(func(qp *QueryProcessor) error {
				if qp != v.QP {
					t.Fatalf("durable=%v: Read answered from another view than ReadView's at seq %d", lg.Durable(), end)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRecoveredLiveGraphReadViewTakesNoLock reopens a durable graph and
// requires its first read to take the lock-free fast path: recovery
// publishes a view at the recovered sequence and records that sequence as
// applied, so ReadView returns at once even while mu is held.
func TestRecoveredLiveGraphReadViewTakesNoLock(t *testing.T) {
	_, events := captureDealership(t, 60, 2)
	dir := t.TempDir()
	lg, err := OpenLiveGraph("rec", dir, WithLogOptions(store.WithFsync(false)))
	if err != nil {
		t.Fatal(err)
	}
	mid := len(events) / 2
	if _, err := lg.Append(1, events[:mid]); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(uint64(mid)+1, events[mid:]); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := OpenLiveGraph("rec", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	got := make(chan uint64, 1)
	restored.mu.Lock()
	go func() { got <- restored.ReadView().Seq }()
	select {
	case seq := <-got:
		restored.mu.Unlock()
		if seq != uint64(len(events)) {
			t.Fatalf("recovered view seq = %d, want %d", seq, len(events))
		}
	case <-time.After(5 * time.Second):
		restored.mu.Unlock()
		<-got
		t.Fatal("ReadView on a recovered graph waited for mu instead of taking the lock-free path")
	}
}
