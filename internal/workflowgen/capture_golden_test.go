package workflowgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
)

// captureDigest is a run's provenance capture reduced to what must never
// move by accident: the sha256 of its event stream in the store event
// codec, and the graph's node, edge and event counts.
type captureDigest struct {
	sha                  string
	nodes, edges, events int
}

// goldenRun is one of the two small runs whose capture and stored bytes
// are pinned.
type goldenRun struct {
	name   string
	graph  *provgraph.Graph
	execs  []*workflow.Execution
	events []provgraph.Event
}

// goldenRuns executes the pinned small dealership and Arctic runs.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	var events []provgraph.Event
	sink := func(ev provgraph.Event) { events = append(events, ev) }
	d, err := RunDealership(DealershipParams{
		NumCars: 400, NumExec: 6, Seed: 1, Gran: workflow.Fine, EventSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := []goldenRun{{name: "dealership", graph: d.Runner.Graph(), execs: d.Executions, events: events}}

	events = nil
	a, err := NewArcticRun(ArcticParams{
		Stations: 6, Topology: Dense, FanOut: 2, Selectivity: SelMonth,
		NumExec: 3, Seed: 1, Gran: workflow.Fine, HistoryYears: 2, EventSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ExecuteAll(); err != nil {
		t.Fatal(err)
	}
	return append(runs, goldenRun{name: "arctic", graph: a.Runner.Graph(), execs: a.Executions, events: events})
}

// TestCaptureOrderGolden pins the exact capture of a small dealership run
// and a small Arctic run. Node ids are part of the stream, so an
// evaluator or runner change that reorders
// node creation — a join emitting in a different order, a deferred state
// node made earlier — fails here even when the graph stays structurally
// equal. Update the digests only for a deliberate change to what is
// captured, and say so.
func TestCaptureOrderGolden(t *testing.T) {
	want := map[string]captureDigest{
		"dealership": {sha: "b73859968b53d12c3f0e8c7f57c5140a3c876153fb6e21d6812e2c07ec1de539", nodes: 1872, edges: 2912, events: 5438},
		"arctic":     {sha: "0c391f7c346a3728448638f24f729bae48642a17256d953101d8147fb31c443d", nodes: 574, edges: 736, events: 1457},
	}
	for _, r := range goldenRuns(t) {
		checkDigest(t, r.name, r.graph, r.events, want[r.name])
	}
}

func checkDigest(t *testing.T, name string, g *provgraph.Graph, events []provgraph.Event, want captureDigest) {
	t.Helper()
	var buf bytes.Buffer
	if err := store.EncodeEventBatch(&buf, 1, events); err != nil {
		t.Fatal(err)
	}
	got := captureDigest{sha: sha(buf.Bytes()), nodes: g.NumNodes(), edges: g.NumEdges(), events: len(events)}
	if got != want {
		t.Errorf("%s: capture %+v, pinned %+v", name, got, want)
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// storedDigests are the sha256s of what the durable write path puts on
// disk for one run.
type storedDigests struct {
	wal        string // the WAL segments a durable LiveGraph wrote for the stream
	snapshot   string // store.Write (v3) of the run's graph and outputs
	checkpoint string // the checkpoint file of that LiveGraph
}

// TestStoredBytesGolden pins the bytes the durable write path writes for
// the two runs of TestCaptureOrderGolden: the WAL records EncodeRecords
// frames (ingested in 512-event batches, so the segment is the records
// verbatim behind its header), a v3 snapshot, and the checkpoint a live
// graph writes from a published view. A codec, Freeze or postings change
// that moves one byte of the stored formats fails here; update the
// digests only for a deliberate format change, and say so.
func TestStoredBytesGolden(t *testing.T) {
	want := map[string]storedDigests{
		"dealership": {
			wal:        "894b6bbbe26895fa93fbbf8098d6ea192bc88cba7d7bf4568520f32dace0c0be",
			snapshot:   "eb96ec14a083fc9bf59b6b0cbac3424a7be9c0cbdd4cdf7cbe3760abb9be8f99",
			checkpoint: "fa0985eb68a024575d0c0c1864351f3b19a51e19cf07b51d55cd2ad631c444a8",
		},
		"arctic": {
			wal:        "62855b28c14b6683420f521236d695ccef2e57d6a83eb5c585e22e53a432645b",
			snapshot:   "8fab14f5f970416a54cb956526ce863d7a1354c6736eaafd46aeadb8f987c2f7",
			checkpoint: "acb8a3def61a625ae2b9465008b69b4db703a9db98366d6a7f458fb9f51ceed8",
		},
	}
	for _, r := range goldenRuns(t) {
		got := storedDigests{snapshot: sha(snapshotBytes(t, r))}
		got.wal, got.checkpoint = liveDigests(t, r.events)
		if got != want[r.name] {
			t.Errorf("%s: stored bytes %+v, pinned %+v", r.name, got, want[r.name])
		}
	}
}

// snapshotBytes writes the run's graph and its output relations, in
// sorted node and relation order, as a v3 snapshot.
func snapshotBytes(t *testing.T, r goldenRun) []byte {
	t.Helper()
	snap := &store.Snapshot{Graph: r.graph}
	for _, e := range r.execs {
		nodes := make([]string, 0, len(e.Outputs))
		for node := range e.Outputs {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			rels := make([]string, 0, len(e.Outputs[node]))
			for rel := range e.Outputs[node] {
				rels = append(rels, rel)
			}
			sort.Strings(rels)
			for _, rel := range rels {
				dump := store.RelationDump{Execution: e.Index, Node: node, Relation: rel}
				for _, tu := range e.Outputs[node][rel].Tuples {
					dump.Tuples = append(dump.Tuples, store.AnnotatedTuple{Tuple: tu.Tuple, Prov: tu.Prov, Mult: tu.Mult})
				}
				snap.Outputs = append(snap.Outputs, dump)
			}
		}
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveDigests ingests events into a durable live graph and returns the
// digests of its WAL segments and of the checkpoint it then writes.
func liveDigests(t *testing.T, events []provgraph.Event) (wal, checkpoint string) {
	t.Helper()
	dir := t.TempDir()
	l, err := core.OpenLiveGraph("golden", dir, core.WithCheckpointEvery(0),
		core.WithLogOptions(store.WithFsync(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for first := 0; first < len(events); first += 512 {
		if _, err := l.Append(uint64(first+1), events[first:min(first+512, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	wal = sha(readGlob(t, filepath.Join(dir, "wal-*.lpwal")))
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return wal, sha(readGlob(t, filepath.Join(dir, "checkpoint-*.lpsk")))
}

// readGlob concatenates the files matching pattern in name order.
func readGlob(t *testing.T, pattern string) []byte {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no files match %s (%v)", pattern, err)
	}
	var all []byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}
