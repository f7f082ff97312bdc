package provgraph_test

import (
	"reflect"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// TestFreezeMatchesStringMapReference holds Freeze, which builds its
// sorted symbol table over the graph's symbol ids, to RefFreeze, the
// string-keyed map it replaced, field for field. The graphs are the ones
// a checkpoint freezes: a graph thawed from a frozen snapshot, a live
// graph's view published mid-ingest, and a live graph recovered from a
// checkpoint plus a WAL tail, with kills and a materialized zoom on top.
func TestFreezeMatchesStringMapReference(t *testing.T) {
	log := provgraph.NewEventLog()
	if _, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 400, NumExec: 6, Seed: 1, Gran: workflow.Fine, EventSink: log.Record,
	}); err != nil {
		t.Fatal(err)
	}
	events := log.Drain()
	half := len(events) / 2
	apply := func(g *provgraph.Graph, evs []provgraph.Event) {
		t.Helper()
		for i := range evs {
			if err := provgraph.Apply(g, &evs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	prefix, err := provgraph.Replay(events[:half])
	if err != nil {
		t.Fatal(err)
	}

	live := provgraph.New()
	live.PrepareForIngest()
	apply(live, events[:half])
	midIngest := live.PublishView()
	apply(live, events[half:]) // the view must not see these

	recovered := provgraph.FromFrozen(provgraph.Freeze(prefix), nil)
	recovered.PrepareForIngest()
	apply(recovered, events[half:])
	for id := provgraph.NodeID(0); int(id) < recovered.TotalNodes(); id += 97 {
		apply(recovered, []provgraph.Event{{Kind: provgraph.EvKill, Src: id}})
	}
	ov := provgraph.NewOverlay(recovered)
	ov.ZoomOut("M_dealer1", "M_agg")

	for _, c := range []struct {
		name string
		g    *provgraph.Graph
	}{
		{"thawed", provgraph.FromFrozen(provgraph.Freeze(prefix), nil)},
		{"mid-ingest view", midIngest},
		{"live", live},
		{"recovered", recovered},
		{"zoomed", ov.Materialize()},
	} {
		got, want := provgraph.Freeze(c.g), provgraph.RefFreeze(c.g)
		if got.NumValues != want.NumValues {
			t.Fatalf("%s: %d values, reference %d", c.name, got.NumValues, want.NumValues)
		}
		for i := 0; i < got.NumValues; i++ {
			if !got.ValueAt(i).Equal(want.ValueAt(i)) {
				t.Fatalf("%s: value %d differs", c.name, i)
			}
		}
		got.ValueAt, want.ValueAt = nil, nil
		gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
		for i := 0; i < gv.NumField(); i++ {
			if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("%s: Frozen.%s differs from the reference", c.name, gv.Type().Field(i).Name)
			}
		}
	}
}
