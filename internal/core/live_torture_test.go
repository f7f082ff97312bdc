package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"lipstick/internal/provgraph"
)

// TestLiveViewSeqConsistencyTorture is the seq-consistency contract of
// the epoch-published read path, run under enough concurrency that the
// race detector audits the publish machinery: while one writer streams a
// captured dealership run into a live graph on the default options,
// several readers hammer ReadView (each publishing when it finds the view
// behind), query through every view they see, and retain one view per
// distinct sequence number. Afterwards each retained view's Seq must be a
// batch boundary and its graph StructurallyEqual to a sequential replay
// of the event stream truncated at exactly that Seq — a published view is
// a consistent event prefix, never a torn mid-batch state.
func TestLiveViewSeqConsistencyTorture(t *testing.T) {
	_, events := captureDealership(t, 300, 5)
	lg := NewLiveGraph("torture")

	const readers = 4
	stop := make(chan struct{})
	retained := make([]map[uint64]*LiveView, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		retained[r] = map[uint64]*LiveView{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := lg.ReadView()
				if v.Seq < last {
					t.Errorf("view seq went backwards: %d after %d", v.Seq, last)
					return
				}
				last = v.Seq
				if _, ok := retained[r][v.Seq]; !ok {
					retained[r][v.Seq] = v
				}
				// Query through the view: the index and traversal paths
				// must be safe against the concurrent writer too.
				qp := v.QP
				ids := qp.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeInvocation}})
				if len(ids) > 0 {
					_ = qp.Lineage(ids[len(ids)-1])
				}
			}
		}(r)
	}

	const chunk = 37
	seq := uint64(1)
	for next := 0; next < len(events); next += chunk {
		end := next + chunk
		if end > len(events) {
			end = len(events)
		}
		if _, err := lg.Append(seq, events[next:end]); err != nil {
			t.Fatal(err)
		}
		seq += uint64(end - next)
		// Yield between batches so the readers actually interleave with
		// the writer on small machines (GOMAXPROCS=1 CI boxes included).
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	// The ReadView right after the last Append observes every applied
	// event: reads are read-your-writes.
	final := lg.ReadView()
	if final.Seq != uint64(len(events)) {
		t.Fatalf("final view seq = %d, want %d", final.Seq, len(events))
	}

	// Distinct retained sequences, ascending, deduped across readers.
	views := map[uint64]*LiveView{final.Seq: final}
	for _, m := range retained {
		for s, v := range m {
			views[s] = v
		}
	}
	var seqs []uint64
	for s := range views {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	t.Logf("verifying %d distinct view sequences", len(seqs))
	if len(seqs) < 3 {
		t.Fatalf("only %d distinct views retained; the readers never raced the writer", len(seqs))
	}

	// One sequential replay, paused at each retained sequence: the view
	// graph must equal the truncated prefix exactly.
	replay := provgraph.New()
	applied := uint64(0)
	for _, s := range seqs {
		if s%chunk != 0 && s != uint64(len(events)) {
			t.Fatalf("view at seq %d is not a batch boundary (batches of %d, %d events)", s, chunk, len(events))
		}
		for applied < s {
			if err := provgraph.Apply(replay, events[applied]); err != nil {
				t.Fatal(err)
			}
			applied++
		}
		vg := views[s].QP.Graph()
		if vg.TotalNodes() != replay.TotalNodes() {
			t.Fatalf("view at seq %d has %d node slots, replay has %d",
				s, vg.TotalNodes(), replay.TotalNodes())
		}
		if !replay.StructurallyEqual(vg) {
			t.Fatalf("view at seq %d is not StructurallyEqual to the sequential replay truncated there", s)
		}
	}
}
