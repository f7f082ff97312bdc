package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/testutil"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// captureDealership runs the dealership generator with streaming capture
// on, returning the batch-built graph and the captured event stream.
func captureDealership(t testing.TB, numCars, numExec int) (*provgraph.Graph, []provgraph.Event) {
	t.Helper()
	log := provgraph.NewEventLog()
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: numCars, NumExec: numExec, Seed: 7,
		Gran: workflow.Fine, StopOnPurchase: false,
		EventSink: log.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run.Runner.Graph(), log.Drain()
}

func captureArctic(t testing.TB) (*provgraph.Graph, []provgraph.Event) {
	t.Helper()
	log := provgraph.NewEventLog()
	run, err := workflowgen.NewArcticRun(workflowgen.ArcticParams{
		Stations: 4, Topology: workflowgen.Dense, FanOut: 2,
		Selectivity: workflowgen.SelMonth, NumExec: 3, Seed: 3,
		Gran: workflow.Fine, HistoryYears: 2,
		EventSink: log.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.ExecuteAll(); err != nil {
		t.Fatal(err)
	}
	return run.Runner.Graph(), log.Drain()
}

// assertLiveMatchesBatch ingests events into an in-memory live graph in
// batches and asserts the result is indistinguishable from the in-process
// batch build: structure, invocations, and index-backed selection.
func assertLiveMatchesBatch(t *testing.T, batch *provgraph.Graph, events []provgraph.Event) {
	t.Helper()
	lg := NewLiveGraph("t")
	const chunk = 97
	seq := uint64(1)
	for i := 0; i < len(events); i += chunk {
		end := i + chunk
		if end > len(events) {
			end = len(events)
		}
		st, err := lg.Append(seq, events[i:end])
		if err != nil {
			t.Fatalf("append at seq %d: %v", seq, err)
		}
		if st.Applied != end-i {
			t.Fatalf("applied %d, want %d", st.Applied, end-i)
		}
		seq += uint64(st.Applied)
	}
	if lg.Seq() != uint64(len(events)) {
		t.Fatalf("seq = %d, want %d", lg.Seq(), len(events))
	}
	if err := lg.Read(func(qp *QueryProcessor) error {
		if !batch.StructurallyEqual(qp.Graph()) {
			t.Fatal("ingested graph differs from batch build")
		}
		if batch.NumInvocations() != qp.Graph().NumInvocations() {
			t.Fatalf("invocations: %d vs %d", batch.NumInvocations(), qp.Graph().NumInvocations())
		}
		for i := 0; i < batch.NumInvocations(); i++ {
			a, b := batch.Invocation(provgraph.InvID(i)), qp.Graph().Invocation(provgraph.InvID(i))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("invocation %d differs:\nbatch %+v\nlive  %+v", i, a, b)
			}
		}
		// The incrementally grown postings must equal a from-scratch index.
		assertPostingsEqual(t, batch, qp.Index().data)
		// And index-backed selection answers like a batch processor.
		ref := NewQueryProcessor(&store.Snapshot{Graph: batch})
		for _, f := range []NodeFilter{
			{Types: []provgraph.Type{provgraph.TypeInvocation}},
			{Module: "M_dealer1"},
			{Ops: []provgraph.Op{provgraph.OpAgg}, Label: "MIN"},
			{Types: []provgraph.Type{provgraph.TypeBaseTuple}, Label: "d1.car0"},
		} {
			if want, got := ref.FindNodes(f), qp.FindNodes(f); !reflect.DeepEqual(want, got) {
				t.Fatalf("FindNodes(%+v): batch %v, live %v", f, want, got)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// assertPostingsEqual compares a live index's lookups against a
// from-scratch build over the batch graph, for every type and op and for
// every label and module the batch graph has. The live index is layered
// (LSM levels over an optional base), so equality is checked through the
// Postings interface, not structurally.
func assertPostingsEqual(t *testing.T, batch *provgraph.Graph, got store.Postings) {
	t.Helper()
	want := store.BuildPostings(batch)
	if got.Coverage() != want.Coverage() {
		t.Fatalf("postings coverage %d, want %d", got.Coverage(), want.Coverage())
	}
	for k := 0; k < 256; k++ {
		if w, g := want.TypeIDs(provgraph.Type(k)), got.TypeIDs(provgraph.Type(k)); !sameIDs(w, g) {
			t.Fatalf("TypeIDs(%d): live %v, batch %v", k, g, w)
		}
		if w, g := want.OpIDs(provgraph.Op(k)), got.OpIDs(provgraph.Op(k)); !sameIDs(w, g) {
			t.Fatalf("OpIDs(%d): live %v, batch %v", k, g, w)
		}
	}
	batch.AllNodesDo(func(n provgraph.Node) bool {
		if w, g := want.LabelIDs(n.Label), got.LabelIDs(n.Label); n.Label != "" && !sameIDs(w, g) {
			t.Fatalf("LabelIDs(%q): live %v, batch %v", n.Label, g, w)
		}
		return true
	})
	batch.Invocations(func(inv *provgraph.Invocation) bool {
		if w, g := want.ModuleIDs(inv.Module), got.ModuleIDs(inv.Module); !sameIDs(w, g) {
			t.Fatalf("ModuleIDs(%q): live %v, batch %v", inv.Module, g, w)
		}
		if w, g := want.ModuleInvocations(inv.Module), got.ModuleInvocations(inv.Module); !slices.Equal(w, g) {
			t.Fatalf("ModuleInvocations(%q): live %v, batch %v", inv.Module, g, w)
		}
		return true
	})
}

func sameIDs(a, b []provgraph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLiveGraphMatchesBatchDealership(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	batch, events := captureDealership(t, 120, 3)
	if len(events) == 0 {
		t.Fatal("capture produced no events")
	}
	assertLiveMatchesBatch(t, batch, events)
}

func TestLiveGraphMatchesBatchArctic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	batch, events := captureArctic(t)
	assertLiveMatchesBatch(t, batch, events)
}

func TestLiveGraphDuplicateAndGapBatches(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, events := captureDealership(t, 60, 2)
	lg := NewLiveGraph("t")
	if _, err := lg.Append(1, events[:50]); err != nil {
		t.Fatal(err)
	}
	// A retried (overlapping) batch is absorbed without duplication.
	st, err := lg.Append(21, events[20:80])
	if err != nil {
		t.Fatalf("overlapping retry: %v", err)
	}
	if st.Duplicates != 30 || st.Applied != 30 || st.Seq != 80 {
		t.Fatalf("retry status = %+v, want 30 dup / 30 applied / seq 80", st)
	}
	// A fully duplicate batch is a no-op.
	st, err = lg.Append(1, events[:80])
	if err != nil || st.Applied != 0 || st.Seq != 80 {
		t.Fatalf("full duplicate: status %+v err %v", st, err)
	}
	// A gap is rejected and does not advance the stream.
	if _, err := lg.Append(100, events[99:]); err == nil {
		t.Fatal("gap accepted")
	} else if _, ok := err.(*SeqGapError); !ok {
		t.Fatalf("gap error type %T, want *SeqGapError", err)
	}
	if lg.Seq() != 80 {
		t.Fatalf("seq moved to %d on rejected batch", lg.Seq())
	}
}

// commitModes runs a durable-graph test under the two committer tunings,
// with fsync off. The subtest names are the ones these tests have always
// used: "serial" is the library default (each commit takes everything
// queued, up to DefaultGroupCommitBytes) and "group" a 1-byte cap that
// gives every batch its own commit. Recovery must not depend on either.
func commitModes(t *testing.T, fn func(t *testing.T, opts []LiveOption)) {
	t.Helper()
	for _, m := range []struct {
		name string
		opts []store.LogOption
	}{
		{"serial", nil},
		{"group", []store.LogOption{store.WithGroupCommit(0, 1)}},
	} {
		t.Run(m.name, func(t *testing.T) {
			fn(t, []LiveOption{WithLogOptions(append(m.opts, store.WithFsync(false))...)})
		})
	}
}

func TestLiveGraphCrashRecovery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	batch, events := captureDealership(t, 120, 3)
	commitModes(t, func(t *testing.T, opts []LiveOption) {
		dir := t.TempDir()
		mid := len(events) / 2

		lg, err := OpenLiveGraph("d", dir, append(opts, WithLogOptions(store.WithSegmentLimit(64<<10)))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(1, events[:mid]); err != nil {
			t.Fatal(err)
		}
		if err := lg.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(uint64(mid)+1, events[mid:]); err != nil {
			t.Fatal(err)
		}
		// Simulated kill: every append above already waited for its commit,
		// and the log has no clean-shutdown marker, so the disk state Close
		// leaves behind is byte-identical to a kill here. (Recovery from a
		// genuinely unclosed log is covered by the store-level WAL tests.)
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}

		restored, err := OpenLiveGraph("d", dir)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if restored.Seq() != uint64(len(events)) {
			t.Fatalf("recovered seq %d, want %d (lost or duplicated events)", restored.Seq(), len(events))
		}
		if restored.CheckpointSeq() != uint64(mid) {
			t.Fatalf("checkpoint seq %d, want %d", restored.CheckpointSeq(), mid)
		}
		if err := restored.Read(func(qp *QueryProcessor) error {
			if !batch.StructurallyEqual(qp.Graph()) {
				t.Fatal("recovered graph differs from batch build")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// A client retry of the final batch after restart must dedupe.
		st, err := restored.Append(uint64(mid)+1, events[mid:])
		if err != nil || st.Applied != 0 {
			t.Fatalf("post-recovery retry applied %d events (err %v)", st.Applied, err)
		}
		if err := restored.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLiveGraphTornTailRecovery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	batch, events := captureDealership(t, 60, 2)
	commitModes(t, func(t *testing.T, opts []LiveOption) {
		dir := t.TempDir()
		lg, err := OpenLiveGraph("d", dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(1, events); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		// Tear the final record, as a kill mid-write would.
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.lpwal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments (%v)", err)
		}
		last := segs[len(segs)-1]
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(last, fi.Size()-5); err != nil {
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
		lost := uint64(len(events)) - restored.Seq()
		if lost == 0 {
			t.Fatal("expected the torn record to be dropped")
		}
		// The sender's retry path: resend from its own position; overlap
		// dedupes, the torn suffix is re-applied.
		if _, err := restored.Append(uint64(len(events)-int(lost)-3), events[len(events)-int(lost)-4:]); err != nil {
			t.Fatalf("repair append: %v", err)
		}
		if restored.Seq() != uint64(len(events)) {
			t.Fatalf("repaired seq %d, want %d", restored.Seq(), len(events))
		}
		if err := restored.Read(func(qp *QueryProcessor) error {
			if !batch.StructurallyEqual(qp.Graph()) {
				t.Fatal("repaired graph differs from batch build")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLiveGraphConcurrentIngestAndReads(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// Readers query through the full surface while the writer streams
	// batches — run under -race in CI.
	_, events := captureDealership(t, 120, 3)
	lg := NewLiveGraph("race")
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = lg.Read(func(qp *QueryProcessor) error {
					nodes := qp.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeInvocation}})
					if len(nodes) > 0 {
						qp.Lineage(nodes[len(nodes)-1])
						qp.Subgraph(nodes[0])
						qp.WhatIfDelete(nodes[0])
					}
					qp.Graph().ComputeStats()
					return nil
				})
				_ = lg.Info()
			}
		}()
	}
	seq := uint64(1)
	const chunk = 50
	for i := 0; i < len(events); i += chunk {
		end := i + chunk
		if end > len(events) {
			end = len(events)
		}
		if _, err := lg.Append(seq, events[i:end]); err != nil {
			t.Fatal(err)
		}
		seq = lg.Seq() + 1
	}
	close(done)
	wg.Wait()
	if lg.Seq() != uint64(len(events)) {
		t.Fatalf("seq = %d, want %d", lg.Seq(), len(events))
	}
}

func TestRegistryLiveGraphs(t *testing.T) {
	dir := t.TempDir()
	path := saveMini(t, dir, "mini.lpsk")
	r := NewRegistry(nil)
	if err := r.Register("mini", path); err != nil {
		t.Fatal(err)
	}
	lg, err := r.OpenLive("stream")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.OpenLive("stream"); err != nil || again != lg {
		t.Fatalf("OpenLive is not idempotent (err %v)", err)
	}
	if _, err := r.OpenLive("mini"); err == nil {
		t.Fatal("OpenLive accepted a static snapshot's name")
	}
	if err := r.Register("stream", path); err == nil {
		t.Fatal("Register accepted a live graph's name")
	}
	if _, err := r.LiveGraph("ghost"); err == nil {
		t.Fatal("LiveGraph resolved an unknown name")
	}
	if _, err := r.CreateSession("stream"); err == nil {
		t.Fatal("CreateSession accepted a live graph")
	}
	snaps := r.Snapshots()
	if len(snaps) != 2 || r.NumSnapshots() != 2 {
		t.Fatalf("snapshots: %+v", snaps)
	}
	if snaps[0].Name != "mini" || snaps[0].Kind != "static" ||
		snaps[1].Name != "stream" || snaps[1].Kind != "live" {
		t.Fatalf("listing: %+v", snaps)
	}
}

func TestRegistryRestoreLiveDir(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	liveDir := filepath.Join(dir, "live")
	_, events := captureDealership(t, 60, 2)

	r := NewRegistry(nil, WithLiveDir(liveDir), WithLiveOptions(WithLogOptions(store.WithFsync(false))))
	lg, err := r.OpenLive("run1")
	if err != nil {
		t.Fatal(err)
	}
	if !lg.Durable() {
		t.Fatal("live graph under a live dir must be durable")
	}
	if _, err := lg.Append(1, events); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := NewRegistry(nil, WithLiveDir(liveDir))
	names, err := r2.RestoreLiveDir()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "run1" {
		t.Fatalf("restored %v, want [run1]", names)
	}
	restored, err := r2.LiveGraph("run1")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Seq() != uint64(len(events)) {
		t.Fatalf("restored seq %d, want %d", restored.Seq(), len(events))
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionFork(t *testing.T) {
	dir := t.TempDir()
	path := saveDealershipSnapshot(t, dir)
	r := NewRegistry(nil)
	if err := r.Register("d", path); err != nil {
		t.Fatal(err)
	}
	parent, err := r.CreateSession("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.ZoomOut("M_agg"); err != nil {
		t.Fatal(err)
	}
	inputs := parent.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeWorkflowInput}})
	if len(inputs) == 0 {
		t.Fatal("no workflow inputs to delete")
	}
	parent.ApplyDelete(inputs[0])

	child, err := r.ForkSession(parent.ID())
	if err != nil {
		t.Fatal(err)
	}
	if child.ID() == parent.ID() {
		t.Fatal("fork reused the parent id")
	}
	if child.SnapshotName() != "d" || child.Changes() != parent.Changes() {
		t.Fatalf("fork state: snapshot %q changes %d vs parent %d",
			child.SnapshotName(), child.Changes(), parent.Changes())
	}
	parentView, childView := sessionView(parent), sessionView(child)
	if !provgraph.ViewsStructurallyEqual(parentView, childView) {
		t.Fatal("forked view differs from parent")
	}
	// The fork inherits the zoom stack: zooming back in must work.
	if _, err := child.ZoomIn(); err != nil {
		t.Fatalf("fork zoom-in: %v", err)
	}
	// And the two sessions diverge independently.
	parent.ApplyDelete(inputs[len(inputs)-1])
	if provgraph.ViewsStructurallyEqual(sessionView(parent), sessionView(child)) {
		t.Fatal("parent mutation leaked into the fork (or vice versa)")
	}
	if _, err := r.ForkSession("sess-missing"); err == nil {
		t.Fatal("forking an unknown session succeeded")
	}
}

// saveDealershipSnapshot tracks a small dealership run and saves it.
func saveDealershipSnapshot(t testing.TB, dir string) string {
	t.Helper()
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 60, NumExec: 2, Seed: 7, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dealership.lpsk")
	if err := store.Save(path, &store.Snapshot{Graph: run.Runner.Graph()}); err != nil {
		t.Fatal(err)
	}
	return path
}

func BenchmarkLiveIngest(b *testing.B) {
	_, events := captureDealership(b, benchCars, benchExecs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg := NewLiveGraph(fmt.Sprintf("b%d", i))
		seq := uint64(1)
		const chunk = 512
		for j := 0; j < len(events); j += chunk {
			end := j + chunk
			if end > len(events) {
				end = len(events)
			}
			if _, err := lg.Append(seq, events[j:end]); err != nil {
				b.Fatal(err)
			}
			seq += uint64(end - j)
		}
	}
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLiveIngestDurable measures durable ingest throughput through
// the group committer under three settings — the library default (every
// commit takes what queued during the previous one) with fsync on, the
// same with fsync off (the log path without the disk flush), and a 1-byte
// cap that gives every batch its own commit, fsync on (what coalescing
// saves) — each with a single pipelined writer and
// with 4 concurrent writers streaming one ordered stream (claim + submit
// serialized, durability waits overlapping, as a multi-connection sender
// would).
func BenchmarkLiveIngestDurable(b *testing.B) {
	_, events := captureDealership(b, benchCars, benchExecs)
	const chunk = 256
	const window = 4 // outstanding batches per writer
	run := func(b *testing.B, opts []LiveOption, writers int) {
		for i := 0; i < b.N; i++ {
			lg, err := OpenLiveGraph("b", b.TempDir(), opts...)
			if err != nil {
				b.Fatal(err)
			}
			var submitMu sync.Mutex
			next := uint64(1)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var outstanding []*PendingAppend
					for {
						submitMu.Lock()
						if next > uint64(len(events)) {
							submitMu.Unlock()
							break
						}
						first := next
						end := first + chunk - 1
						if end > uint64(len(events)) {
							end = uint64(len(events))
						}
						next = end + 1
						p := lg.AppendAsync(first, events[first-1:end])
						submitMu.Unlock()
						outstanding = append(outstanding, p)
						if len(outstanding) >= window {
							if _, err := outstanding[0].Wait(); err != nil {
								b.Error(err)
								return
							}
							outstanding = outstanding[1:]
						}
					}
					for _, p := range outstanding {
						if _, err := p.Wait(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			lg.Close()
		}
		b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/s")
	}
	modes := []struct {
		name string
		opts []LiveOption
	}{
		{"fsync", nil},
		{"nofsync", []LiveOption{WithLogOptions(store.WithFsync(false))}},
		{"group", []LiveOption{WithLogOptions(store.WithGroupCommit(0, 1))}},
	}
	for _, m := range modes {
		for _, writers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w%d", m.name, writers), func(b *testing.B) {
				run(b, m.opts, writers)
			})
		}
	}
}

func BenchmarkLiveFindMidIngest(b *testing.B) {
	// Query latency against a live graph while ingestion streams in the
	// background — the "live queries stay indexed" claim under load.
	_, events := captureDealership(b, benchCars, benchExecs)
	lg := NewLiveGraph("b")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(1)
		for {
			for j := 0; j < len(events); j += 256 {
				select {
				case <-stop:
					return
				default:
				}
				end := j + 256
				if end > len(events) {
					end = len(events)
				}
				if seq == 1 || seq <= lg.Seq() { // first pass streams, later passes dedupe
					lg.Append(seq, events[j:end])
					seq += uint64(end - j)
				}
			}
			seq = 1
		}
	}()
	f := NodeFilter{Types: []provgraph.Type{provgraph.TypeInvocation}, Module: "M_dealer1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lg.Read(func(qp *QueryProcessor) error {
			qp.FindNodes(f)
			return nil
		})
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func TestLiveGraphGroupCommitPipelinedMatchesBatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// Four writers pipeline ordered batches of one stream through
	// AppendAsync (claim + submit under a shared lock, durability waits
	// overlapping) into a group-committed WAL. The result must be
	// indistinguishable from the batch build, and recovery must see every
	// event exactly once.
	batch, events := captureDealership(t, 120, 3)
	dir := t.TempDir()
	lg, err := OpenLiveGraph("d", dir)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 64
	var submitMu sync.Mutex
	next := uint64(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				submitMu.Lock()
				if next > uint64(len(events)) {
					submitMu.Unlock()
					return
				}
				first := next
				end := first + chunk - 1
				if end > uint64(len(events)) {
					end = uint64(len(events))
				}
				next = end + 1
				p := lg.AppendAsync(first, events[first-1:end])
				submitMu.Unlock()
				if st, err := p.Wait(); err != nil {
					t.Errorf("batch at %d: %v (status %+v)", first, err, st)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if lg.Seq() != uint64(len(events)) {
		t.Fatalf("seq = %d, want %d", lg.Seq(), len(events))
	}
	ps := lg.PipelineStats()
	if ps.GroupCommits < 1 || ps.GroupBatches < ps.GroupCommits {
		t.Fatalf("pipeline stats: %+v", ps)
	}
	if err := lg.Read(func(qp *QueryProcessor) error {
		if !batch.StructurallyEqual(qp.Graph()) {
			t.Fatal("pipelined ingest differs from batch build")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenLiveGraph("d", dir)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if restored.Seq() != uint64(len(events)) {
		t.Fatalf("recovered seq %d, want %d", restored.Seq(), len(events))
	}
	if err := restored.Read(func(qp *QueryProcessor) error {
		if !batch.StructurallyEqual(qp.Graph()) {
			t.Fatal("recovered group-committed graph differs from batch build")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveGraphGroupCommitDuplicateAndGap(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// The idempotence contract (dup-skip, gap rejection) holds unchanged
	// under group commit, including the durable ack of a full duplicate.
	_, events := captureDealership(t, 60, 2)
	lg, err := OpenLiveGraph("d", t.TempDir(), WithLogOptions(store.WithFsync(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if _, err := lg.Append(1, events[:50]); err != nil {
		t.Fatal(err)
	}
	st, err := lg.Append(21, events[20:80])
	if err != nil || st.Duplicates != 30 || st.Applied != 30 || st.Seq != 80 {
		t.Fatalf("overlapping retry: %+v err %v", st, err)
	}
	st, err = lg.Append(1, events[:80])
	if err != nil || st.Applied != 0 || st.Duplicates != 80 {
		t.Fatalf("full duplicate: %+v err %v", st, err)
	}
	if lg.Seq() != 80 || lg.log.LastSeq() != 80 {
		t.Fatalf("graph at %d, log at %d, want 80/80", lg.Seq(), lg.log.LastSeq())
	}
	if _, err := lg.Append(100, events[99:]); err == nil {
		t.Fatal("gap accepted")
	} else if _, ok := err.(*SeqGapError); !ok {
		t.Fatalf("gap error type %T", err)
	}
}

func TestLiveGraphAdmissionOverload(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// A full admission queue rejects deterministically with
	// *OverloadedError; draining a slot re-admits.
	_, events := captureDealership(t, 60, 2)
	lg := NewLiveGraph("t", WithIngestQueueDepth(1))
	p := lg.AppendAsync(1, events[:10]) // holds the only slot until Wait
	if p.err != nil {
		t.Fatalf("first append rejected: %v", p.err)
	}
	if _, err := lg.Append(11, events[10:20]); err == nil {
		t.Fatal("overload accepted")
	} else {
		over, ok := err.(*OverloadedError)
		if !ok || over.Name != "t" || over.Depth != 1 {
			t.Fatalf("overload error = %v", err)
		}
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if st, err := lg.Append(11, events[10:20]); err != nil || st.Seq != 20 {
		t.Fatalf("post-drain append: %+v err %v", st, err)
	}
	ps := lg.PipelineStats()
	if ps.QueueDepth != 1 || ps.QueueHighWater != 1 {
		t.Fatalf("pipeline stats: %+v", ps)
	}
}
