package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// The session series contrasts copy-on-write sessions (provgraph.Overlay)
// against the Clone() baseline the server used to pay per zoom request,
// at two graph sizes — the overlay's costs must stay sub-linear in graph
// size. Recorded runs live in EXPERIMENTS.md.

// sessionBenchSizes are dealership scales; benchCars matches the rest of
// the core suite.
var sessionBenchSizes = []int{300, benchCars}

func sessionBenchProcessor(b *testing.B, cars int) *QueryProcessor {
	b.Helper()
	if cars == benchCars {
		return benchProcessor(b) // share the expensive build
	}
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: cars, NumExec: benchExecs, Seed: 1,
		Gran: workflow.Fine, StopOnPurchase: false,
	})
	if err != nil {
		b.Fatal(err)
	}
	return NewQueryProcessor(&store.Snapshot{Graph: run.Runner.Graph()})
}

// BenchmarkSessionCreate measures opening a mutation session (overlay)
// against deep-copying the graph (the Clone baseline).
func BenchmarkSessionCreate(b *testing.B) {
	for _, cars := range sessionBenchSizes {
		qp := sessionBenchProcessor(b, cars)
		g := qp.Graph()
		path := filepath.Join(b.TempDir(), "bench.lpsk")
		if err := store.Save(path, &store.Snapshot{Graph: g}); err != nil {
			b.Fatal(err)
		}
		reg := NewRegistry(nil, WithSessionLimit(1<<20))
		if err := reg.Register("bench", path); err != nil {
			b.Fatal(err)
		}
		nodes := float64(g.TotalNodes())
		b.Run(fmt.Sprintf("overlay/cars=%d", cars), func(b *testing.B) {
			b.ReportMetric(nodes, "nodes")
			for i := 0; i < b.N; i++ {
				if _, err := reg.CreateSession("bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("clone/cars=%d", cars), func(b *testing.B) {
			b.ReportMetric(nodes, "nodes")
			for i := 0; i < b.N; i++ {
				g.Clone()
			}
		})
	}
}

// BenchmarkSessionFirstZoom measures session-create plus the first
// zoom-out — the interactive "open a what-if view" operation `lipstick
// serve` performs. BenchmarkSessionCreate's clone rows are the cost of
// the deep copy an overlay replaces.
func BenchmarkSessionFirstZoom(b *testing.B) {
	for _, cars := range sessionBenchSizes {
		qp := sessionBenchProcessor(b, cars)
		g := qp.Graph()
		nodes := float64(g.TotalNodes())
		b.Run(fmt.Sprintf("overlay/cars=%d", cars), func(b *testing.B) {
			b.ReportMetric(nodes, "nodes")
			for i := 0; i < b.N; i++ {
				ov := provgraph.NewOverlay(g)
				ov.ZoomOut("M_dealer1")
			}
		})
	}
}

// dealershipZoomModules are the dealership modules a session zooms.
var dealershipZoomModules = []string{"M_agg", "M_dealer1", "M_dealer2", "M_dealer3", "M_dealer4"}

// BenchmarkSessionZoomRoundTrip measures a session's zoom round trip:
// create a session, zoom one module out and back in. cold runs each
// round trip over a fresh copy of the base (copied off the clock), so
// the zoom computes Definition 4.1 and fills the base's zoom memo; warm
// replays the memoized plans, as sessions over a served snapshot do.
func BenchmarkSessionZoomRoundTrip(b *testing.B) {
	qp := benchProcessor(b)
	roundTrip := func(b *testing.B, base *QueryProcessor, i int) {
		s := newSession("bench", "bench", base, time.Now())
		if _, err := s.ZoomOut(dealershipZoomModules[i%len(dealershipZoomModules)]); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ZoomIn(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base := NewQueryProcessor(&store.Snapshot{Graph: qp.Graph().Clone()})
			b.StartTimer()
			roundTrip(b, base, i)
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := range dealershipZoomModules {
			roundTrip(b, qp, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip(b, qp, i)
		}
	})
}

// BenchmarkSessionApplyDelete measures an applied deletion propagation
// with aggregate recomputation through a fresh session view.
func BenchmarkSessionApplyDelete(b *testing.B) {
	qp := sessionBenchProcessor(b, benchCars)
	g := qp.Graph()
	targets := qp.FindNodes(NodeFilter{Types: []provgraph.Type{provgraph.TypeWorkflowInput}})
	if len(targets) == 0 {
		b.Fatal("no targets")
	}
	b.Run("overlay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ov := provgraph.NewOverlay(g)
			ov.Delete(targets[i%len(targets)])
			ov.RecomputeAggregates()
		}
	})
}

// BenchmarkSessionWhatIfDelete times a what-if Session.Delete with the
// describe step serve's SessionDelete runs (each removed node's type, op
// and label), one HighFanoutNodes(50) target per op, on a mapped
// snapshot of the dealership workload: in a fresh session, and in one
// that has made a zoom round trip of each module. Neither holds a delta,
// so both answer from the base.
func BenchmarkSessionWhatIfDelete(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.lpsk")
	if err := store.Save(path, &store.Snapshot{Graph: benchProcessor(b).Graph()}); err != nil {
		b.Fatal(err)
	}
	qp, err := Load(path)
	if err != nil {
		b.Fatal(err)
	}
	targets := workflowgen.HighFanoutNodes(qp.Graph(), 50)
	for _, c := range []struct {
		name string
		prep func(*Session) error
	}{
		{"fresh", func(*Session) error { return nil }},
		{"after-round-trip", func(s *Session) error {
			for _, m := range dealershipZoomModules {
				if _, err := s.ZoomOut(m); err != nil {
					return err
				}
				if _, err := s.ZoomIn(); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewSession(qp)
			if err := c.prep(s); err != nil {
				b.Fatal(err)
			}
			described := 0
			describe := func(v View, res *provgraph.DeletionResult, _ []provgraph.RecomputedAggregate) {
				for _, id := range res.Removed {
					typ, op := v.Graph.TypeOp(id)
					described += len(typ.String()) + len(op.String()) + len(v.Graph.LabelOf(id))
				}
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if err := s.Delete(targets[i%len(targets):][:1], true, describe); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}
