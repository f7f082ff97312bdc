// Benchmarks regenerating every figure of the paper's evaluation
// (Section 5) at DefaultScale, plus three ablations. BenchmarkFigures
// runs workflowgen's figure code — the code `cmd/workflowgen -fig`
// prints — with a clock that makes each point of a figure a
// sub-benchmark, BenchmarkFigures/<figure>/<series>/<x>; see
// EXPERIMENTS.md for recorded results and the shape comparison against
// the paper.
package lipstick_test

import (
	"slices"
	"testing"
	"time"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// benchCars sizes the dealership ablations.
const benchCars = 1200

// BenchmarkFigures runs every figure, each point as a sub-benchmark whose
// ns/op is the mean of its b.N trials. finegrained, nodes and graphmem
// time no point through the clock, so they run once and skip.
func BenchmarkFigures(b *testing.B) {
	for _, id := range workflowgen.FigureIDs {
		b.Run(id, func(b *testing.B) {
			timed := false
			clock := func(name string, trial func() time.Duration) time.Duration {
				timed = true
				var mean time.Duration
				b.Run(name, func(b *testing.B) {
					var total time.Duration
					for range b.N {
						total += trial()
					}
					mean = total / time.Duration(b.N)
					b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
				})
				return mean
			}
			if _, err := workflowgen.RunFigure(id, workflowgen.DefaultScale, clock); err != nil {
				b.Fatal(err)
			}
			if !timed {
				b.Skip("the figure times no point")
			}
		})
	}
}

// BenchmarkCoarseVsFineTracking contrasts the two tracked granularities
// (the ablation DESIGN.md calls out: what fine-grained tracking costs over
// the coarse baseline).
func BenchmarkCoarseVsFineTracking(b *testing.B) {
	for _, cfg := range []struct {
		name string
		gran workflow.Granularity
	}{{"plain", workflow.Plain}, {"coarse", workflow.Coarse}, {"fine", workflow.Fine}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := workflowgen.NewDealershipRun(workflowgen.DealershipParams{
					NumCars: benchCars, NumExec: 5, Seed: 1,
					Gran: cfg.gran, StopOnPurchase: false,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := run.ExecuteAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLazyVsEagerStateNodes is the ablation of the lazy state-node
// policy (DESIGN.md §5.2): eager wraps every state tuple per invocation.
func BenchmarkLazyVsEagerStateNodes(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		eager bool
	}{{"lazy", false}, {"eager", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
					NumCars: 400, NumExec: 3, Seed: 1,
					Gran: workflow.Fine, StopOnPurchase: false, EagerState: cfg.eager,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = run
			}
		})
	}
}

// BenchmarkZoomRoundTrip exercises the zoom property end to end: every
// module zoomed out (the coarse-grained view) and back in, on an overlay
// of a fresh clone taken off the clock, so each ZoomOut runs the
// Definition 4.1 kernel.
func BenchmarkZoomRoundTrip(b *testing.B) {
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: benchCars, NumExec: 10, Seed: 1, Gran: workflow.Fine,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := run.Runner.Graph()
	var modules []string
	g.Invocations(func(inv *provgraph.Invocation) bool {
		if !slices.Contains(modules, inv.Module) {
			modules = append(modules, inv.Module)
		}
		return true
	})
	before := g.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ov := provgraph.NewOverlay(g.Clone())
		b.StartTimer()
		ov.ZoomIn(ov.ZoomOut(modules...))
		if ov.NumNodes() != before {
			b.Fatal("zoom round trip lost nodes")
		}
	}
}
