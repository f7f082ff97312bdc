// Benchmarks regenerating every figure of the paper's evaluation
// (Section 5) at reduced scale. Each benchmark measures the operation the
// figure plots; `cmd/workflowgen` runs the same experiments as full
// parameter sweeps and prints the paper-style series (see EXPERIMENTS.md
// for recorded results and the shape comparison against the paper).
package lipstick_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"lipstick/internal/cluster"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// benchCars and benchExecs size the dealership benchmarks.
const (
	benchCars  = 1200
	benchExecs = 10
)

// dealershipRun produces a tracked run for graph-query benchmarks.
func dealershipRun(b *testing.B, gran workflow.Granularity) *workflowgen.DealershipRun {
	b.Helper()
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: benchCars, NumExec: benchExecs, Seed: 1,
		Gran: gran, StopOnPurchase: false,
	})
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkFig5aDealershipTracking measures executing the Car-dealerships
// workflow with fine-grained provenance tracking (Figure 5(a), upper
// series).
func BenchmarkFig5aDealershipTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := workflowgen.NewDealershipRun(workflowgen.DealershipParams{
			NumCars: benchCars, NumExec: benchExecs, Seed: 1,
			Gran: workflow.Fine, StopOnPurchase: false,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := run.ExecuteAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aDealershipNoTracking is Figure 5(a)'s baseline series.
func BenchmarkFig5aDealershipNoTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := workflowgen.NewDealershipRun(workflowgen.DealershipParams{
			NumCars: benchCars, NumExec: benchExecs, Seed: 1,
			Gran: workflow.Plain, StopOnPurchase: false,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := run.ExecuteAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchArctic runs one Arctic configuration per iteration (Figure 5(b)).
func benchArctic(b *testing.B, topo workflowgen.Topology, fanOut int, gran workflow.Granularity) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		run, err := workflowgen.NewArcticRun(workflowgen.ArcticParams{
			Stations: 8, Topology: topo, FanOut: fanOut,
			Selectivity: workflowgen.SelMonth, NumExec: 4, Seed: 1,
			Gran: gran, HistoryYears: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := run.ExecuteAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bArctic covers Figure 5(b)'s six series.
func BenchmarkFig5bArctic(b *testing.B) {
	b.Run("parallel/tracking", func(b *testing.B) { benchArctic(b, workflowgen.Parallel, 0, workflow.Fine) })
	b.Run("parallel/plain", func(b *testing.B) { benchArctic(b, workflowgen.Parallel, 0, workflow.Plain) })
	b.Run("dense/tracking", func(b *testing.B) { benchArctic(b, workflowgen.Dense, 2, workflow.Fine) })
	b.Run("dense/plain", func(b *testing.B) { benchArctic(b, workflowgen.Dense, 2, workflow.Plain) })
	b.Run("serial/tracking", func(b *testing.B) { benchArctic(b, workflowgen.Serial, 0, workflow.Fine) })
	b.Run("serial/plain", func(b *testing.B) { benchArctic(b, workflowgen.Serial, 0, workflow.Plain) })
}

// BenchmarkFig5cReducers measures the cluster simulation behind
// Figure 5(c): a full 1..54-reducer sweep per iteration.
func BenchmarkFig5cReducers(b *testing.B) {
	job := &cluster.Job{Stages: []cluster.Stage{{
		SerialCost: 1.2,
		Tasks: []cluster.Task{
			{Key: 0, Cost: 1}, {Key: 1, Cost: 1.1}, {Key: 2, Cost: 0.9}, {Key: 3, Cost: 1},
		},
	}}}
	c := cluster.Default()
	counts := []int{1, 2, 3, 4, 6, 10, 20, 30, 40, 54}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Sweep(job, counts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6aGraphBuild measures building the in-memory provenance
// graph from the tracker's serialized output (Figure 6(a)).
func BenchmarkFig6aGraphBuild(b *testing.B) {
	run := dealershipRun(b, workflow.Fine)
	snap := &store.Snapshot{Graph: run.Runner.Graph()}
	var buf bytes.Buffer
	if err := store.Write(&buf, snap); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchArcticBuild measures graph building for one Arctic configuration
// (Figures 6(b) and 6(c)).
func benchArcticBuild(b *testing.B, topo workflowgen.Topology, fanOut int, sel workflowgen.Selectivity) {
	b.Helper()
	run, err := workflowgen.NewArcticRun(workflowgen.ArcticParams{
		Stations: 8, Topology: topo, FanOut: fanOut, Selectivity: sel,
		NumExec: 4, Seed: 1, Gran: workflow.Fine, HistoryYears: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := run.ExecuteAll(); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, &store.Snapshot{Graph: run.Runner.Graph()}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6bArcticBuild sweeps selectivity at dense fan-out 2.
func BenchmarkFig6bArcticBuild(b *testing.B) {
	for _, sel := range workflowgen.Selectivities {
		sel := sel
		b.Run(string(sel), func(b *testing.B) { benchArcticBuild(b, workflowgen.Dense, 2, sel) })
	}
}

// BenchmarkFig6cArcticBuild sweeps topology at month selectivity.
func BenchmarkFig6cArcticBuild(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchArcticBuild(b, workflowgen.Serial, 0, workflowgen.SelMonth) })
	b.Run("parallel", func(b *testing.B) { benchArcticBuild(b, workflowgen.Parallel, 0, workflowgen.SelMonth) })
	b.Run("dense2", func(b *testing.B) { benchArcticBuild(b, workflowgen.Dense, 2, workflowgen.SelMonth) })
	b.Run("dense4", func(b *testing.B) { benchArcticBuild(b, workflowgen.Dense, 4, workflowgen.SelMonth) })
}

// benchZoom measures a ZoomOut+ZoomIn round trip on an overlay and
// reports the two halves as separate metrics (avoiding per-iteration
// timer restarts, which are prohibitively expensive under -benchmem).
// Each iteration zooms over a fresh clone of the run's graph, cloned
// outside the measured halves: a fresh clone has an empty zoom memo, so
// every ZoomOut runs the Definition 4.1 kernel. The paper's observation —
// ZoomIn ≈3× faster than ZoomOut — reads off the two reported metrics.
func benchZoom(b *testing.B, modules ...string) {
	run := dealershipRun(b, workflow.Fine)
	g := run.Runner.Graph()
	var outNS, inNS time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov := provgraph.NewOverlay(g.Clone())
		start := time.Now()
		rec := ov.ZoomOut(modules...)
		mid := time.Now()
		ov.ZoomIn(rec)
		end := time.Now()
		outNS += mid.Sub(start)
		inNS += end.Sub(mid)
	}
	b.ReportMetric(float64(outNS.Nanoseconds())/float64(b.N), "zoomout-ns/op")
	b.ReportMetric(float64(inNS.Nanoseconds())/float64(b.N), "zoomin-ns/op")
}

// BenchmarkFig7aZoom measures ZoomOut and ZoomIn for the dealer modules
// and the aggregator (Figure 7(a)); see the zoomout-ns/op and zoomin-ns/op
// metrics.
func BenchmarkFig7aZoom(b *testing.B) {
	b.Run("dealer", func(b *testing.B) {
		benchZoom(b, "M_dealer1", "M_dealer2", "M_dealer3", "M_dealer4")
	})
	b.Run("aggregate", func(b *testing.B) {
		benchZoom(b, "M_agg")
	})
}

// BenchmarkFig7bSubgraph measures subgraph queries from high-fan-out nodes
// (Figure 7(b)).
func BenchmarkFig7bSubgraph(b *testing.B) {
	run := dealershipRun(b, workflow.Fine)
	g := run.Runner.Graph()
	targets := workflowgen.HighFanoutNodes(g, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Subgraph(targets[i%len(targets)])
	}
}

// BenchmarkFig7cSubgraph measures subgraph queries on the Arctic graph
// across topologies (Figure 7(c)).
func BenchmarkFig7cSubgraph(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		topo   workflowgen.Topology
		fanOut int
	}{{"serial", workflowgen.Serial, 0}, {"parallel", workflowgen.Parallel, 0}, {"dense3", workflowgen.Dense, 3}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			run, err := workflowgen.NewArcticRun(workflowgen.ArcticParams{
				Stations: 8, Topology: cfg.topo, FanOut: cfg.fanOut,
				Selectivity: workflowgen.SelMonth, NumExec: 4, Seed: 1,
				Gran: workflow.Fine, HistoryYears: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := run.ExecuteAll(); err != nil {
				b.Fatal(err)
			}
			g := run.Runner.Graph()
			targets := workflowgen.HighFanoutNodes(g, 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Subgraph(targets[i%len(targets)])
			}
		})
	}
}

// BenchmarkDeletePropagation measures deletion propagation from
// high-fan-out nodes (Section 5.6's delete query).
func BenchmarkDeletePropagation(b *testing.B) {
	run := dealershipRun(b, workflow.Fine)
	g := run.Runner.Graph()
	targets := workflowgen.HighFanoutNodes(g, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PropagateDeletion(targets[i%len(targets)])
	}
}

// BenchmarkFineGrainedness measures the Section 5.5 dependency-profile
// computation.
func BenchmarkFineGrainedness(b *testing.B) {
	run := dealershipRun(b, workflow.Fine)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := workflowgen.MeasureFineGrainedness(run)
		if m.StateTuples == 0 {
			b.Fatal("no state measured")
		}
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
	run := dealershipRun(b, workflow.Fine)
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
