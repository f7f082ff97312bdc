package store_test

import (
	"io"
	"sync"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// dealershipEvents is the capture of a fine-grained 8,000-car, 20-run
// dealership: the stream the durable ingest path writes.
var dealershipEvents = sync.OnceValues(func() ([]provgraph.Event, error) {
	log := provgraph.NewEventLog()
	_, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 8000, NumExec: 20, Seed: 1, Gran: workflow.Fine, EventSink: log.Record,
	})
	return log.Drain(), err
})

func benchEvents(b *testing.B) []provgraph.Event {
	b.Helper()
	events, err := dealershipEvents()
	if err != nil {
		b.Fatal(err)
	}
	return events
}

// BenchmarkEncodeRecords frames the capture as WAL records in the
// 512-event batches a durable LiveGraph append encodes.
func BenchmarkEncodeRecords(b *testing.B) {
	events := benchEvents(b)
	const batch = 512
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < len(events); i += batch {
			recs, err := store.EncodeRecords(events[i:min(i+batch, len(events))])
			if err != nil {
				b.Fatal(err)
			}
			recs.Recycle()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// BenchmarkCheckpointWrite writes what a durable LiveGraph checkpoints:
// a v3 snapshot of a published view of the graph the capture built
// through the ingest path.
func BenchmarkCheckpointWrite(b *testing.B) {
	events := benchEvents(b)
	g := provgraph.New()
	g.PrepareForIngest()
	for i := range events {
		if err := provgraph.Apply(g, &events[i]); err != nil {
			b.Fatal(err)
		}
	}
	snap := &store.Snapshot{Graph: g.PublishView()}
	b.ReportAllocs()
	for b.Loop() {
		if err := store.Write(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
}
