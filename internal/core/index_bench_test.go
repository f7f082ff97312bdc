package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// Benchmarks for the indexed query path at the scale of the root
// benchmark suite (benchCars=1200, 10 executions — the workflowgen
// dealership workload). Recorded runs live in EXPERIMENTS.md.

const (
	benchCars  = 1200
	benchExecs = 10
)

var benchState struct {
	once sync.Once
	qp   *QueryProcessor
	err  error
}

// benchProcessor tracks the dealership workload once per `go test`
// process and shares the processor across benchmarks.
func benchProcessor(b *testing.B) *QueryProcessor {
	b.Helper()
	benchState.once.Do(func() {
		run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
			NumCars: benchCars, NumExec: benchExecs, Seed: 1,
			Gran: workflow.Fine, StopOnPurchase: false,
		})
		if err != nil {
			benchState.err = err
			return
		}
		benchState.qp = NewQueryProcessor(&store.Snapshot{Graph: run.Runner.Graph()})
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.qp
}

// benchFilters are the FindNodes shapes both series run: a label point
// lookup, an op selection, a type selection, and a module+type
// intersection.
var benchFilters = []struct {
	name string
	f    NodeFilter
}{
	{"label", NodeFilter{Label: "d1.car0"}}, // token point lookup
	{"op", NodeFilter{Ops: []provgraph.Op{provgraph.OpAgg}}},
	{"type", NodeFilter{Types: []provgraph.Type{provgraph.TypeWorkflowInput}}},
	{"module+type", NodeFilter{Module: "M_agg", Types: []provgraph.Type{provgraph.TypeModuleOutput}}},
}

// BenchmarkFindNodesIndexed measures postings-intersection FindNodes.
func BenchmarkFindNodesIndexed(b *testing.B) {
	qp := benchProcessor(b)
	for _, bf := range benchFilters {
		b.Run(bf.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				n = len(qp.FindNodes(bf.f))
			}
			b.ReportMetric(float64(n), "hits")
		})
	}
}

// BenchmarkFindNodesScan is the reference full scan (findNodesScanIn)
// over the same filters.
func BenchmarkFindNodesScan(b *testing.B) {
	qp := benchProcessor(b)
	for _, bf := range benchFilters {
		b.Run(bf.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				n = len(findNodesScanIn(qp.Graph(), bf.f))
			}
			b.ReportMetric(float64(n), "hits")
		})
	}
}

// BenchmarkSnapshotOpen contrasts a cold load-per-query (the old CLI
// behavior: store.Load + graph build each time) against the
// SnapshotManager's cached processor.
func BenchmarkSnapshotOpen(b *testing.B) {
	qp := benchProcessor(b)
	path := filepath.Join(b.TempDir(), "bench.lpsk")
	if err := store.Save(path, &store.Snapshot{Graph: qp.Graph()}); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(fi.Size())
		for i := 0; i < b.N; i++ {
			if _, err := Load(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		m := NewSnapshotManager(2)
		b.SetBytes(fi.Size())
		for i := 0; i < b.N; i++ {
			if _, err := m.Open(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryLatency records the subgraph and lineage latency series
// against the same snapshot (cached-processor steady state).
func BenchmarkQueryLatency(b *testing.B) {
	qp := benchProcessor(b)
	targets := workflowgen.HighFanoutNodes(qp.Graph(), 50)
	if len(targets) == 0 {
		b.Fatal("no targets")
	}
	b.Run("subgraph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qp.Subgraph(targets[i%len(targets)])
		}
	})
	b.Run("lineage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qp.Lineage(targets[i%len(targets)])
		}
	})
}
