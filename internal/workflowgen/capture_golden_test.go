package workflowgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

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

// TestCaptureOrderGolden pins the exact capture of a small dealership run
// and a small Arctic run. Node ids are part of the stream, so an
// evaluator or runner change that reorders
// node creation — a join emitting in a different order, a deferred state
// node made earlier — fails here even when the graph stays structurally
// equal. Update the digests only for a deliberate change to what is
// captured, and say so.
func TestCaptureOrderGolden(t *testing.T) {
	dealer := captureDigest{sha: "b73859968b53d12c3f0e8c7f57c5140a3c876153fb6e21d6812e2c07ec1de539", nodes: 1872, edges: 2912, events: 5438}
	arctic := captureDigest{sha: "0c391f7c346a3728448638f24f729bae48642a17256d953101d8147fb31c443d", nodes: 574, edges: 736, events: 1457}
	var events []provgraph.Event
	sink := func(ev provgraph.Event) { events = append(events, ev) }
	d, err := RunDealership(DealershipParams{
		NumCars: 400, NumExec: 6, Seed: 1, Gran: workflow.Fine, EventSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "dealership", d.Runner.Graph(), events, dealer)

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
	checkDigest(t, "arctic", a.Runner.Graph(), events, arctic)
}

func checkDigest(t *testing.T, name string, g *provgraph.Graph, events []provgraph.Event, want captureDigest) {
	t.Helper()
	var buf bytes.Buffer
	if err := store.EncodeEventBatch(&buf, 1, events); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := captureDigest{sha: hex.EncodeToString(sum[:]), nodes: g.NumNodes(), edges: g.NumEdges(), events: len(events)}
	if got != want {
		t.Errorf("%s: capture %+v, pinned %+v", name, got, want)
	}
}
