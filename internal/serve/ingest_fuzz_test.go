package serve

import (
	"bytes"
	"net/http"
	"testing"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// FuzzIngest sends arbitrary bytes through Service.Ingest into an
// in-memory live graph that already holds the first half of a captured
// run. Every input must be answered or refused with a structured error
// (one the HTTP layer maps to a status other than 500), and the graph must
// stay structurally equal to a replay of the stream prefix it accepted.
// The seeds are the run's real next batch, a duplicate and a gap.
func FuzzIngest(f *testing.F) {
	log := provgraph.NewEventLog()
	if _, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 12, NumExec: 1, Seed: 3, Gran: workflow.Fine, EventSink: log.Record,
	}); err != nil {
		f.Fatal(err)
	}
	events := log.Drain()
	mid := len(events) / 2
	encode := func(firstSeq uint64, evs []provgraph.Event) []byte {
		var buf bytes.Buffer
		if err := store.EncodeEventBatch(&buf, firstSeq, evs); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	prefix := encode(1, events[:mid])
	f.Add(encode(uint64(mid)+1, events[mid:]))
	f.Add(prefix)
	f.Add(encode(uint64(mid)+5, events[mid+4:]))

	f.Fuzz(func(t *testing.T, body []byte) {
		svc := NewService(nil)
		defer svc.Registry().Close()
		if _, err := svc.Ingest("fz", bytes.NewReader(prefix)); err != nil {
			t.Fatal(err)
		}
		res, err := svc.Ingest("fz", bytes.NewReader(body))
		if err != nil && statusFor(err) == http.StatusInternalServerError {
			t.Fatalf("unstructured error: %v", err)
		}
		lg, lerr := svc.Registry().LiveGraph("fz")
		if lerr != nil {
			t.Fatal(lerr)
		}
		seq := lg.Seq()
		if res != nil && res.Seq != seq {
			t.Fatalf("answered seq %d, graph at %d", res.Seq, seq)
		}
		// The stream the graph saw: the prefix, then the body's events past
		// it (a batch overlapping the prefix has its overlap skipped).
		stream := events[:mid:mid]
		if first, evs, derr := store.DecodeEventBatch(bytes.NewReader(body)); derr == nil && first >= 1 && first <= uint64(mid)+1 {
			if skip := uint64(mid) + 1 - first; skip < uint64(len(evs)) {
				stream = append(stream, evs[skip:]...)
			}
		}
		if seq < uint64(mid) || seq > uint64(len(stream)) {
			t.Fatalf("graph at seq %d, outside the stream's [%d, %d]", seq, mid, len(stream))
		}
		want, err := provgraph.Replay(stream[:seq])
		if err != nil {
			t.Fatalf("replaying the accepted prefix: %v", err)
		}
		if err := readLive(svc, "fz", func(qp *core.QueryProcessor) error {
			if !want.StructurallyEqual(qp.Graph()) {
				t.Fatalf("live graph at seq %d differs from a replay of its accepted prefix", seq)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}
