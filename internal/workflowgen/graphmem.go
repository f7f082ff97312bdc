package workflowgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// SyntheticGraph builds a dealership-shaped provenance graph of roughly n
// nodes: chained module invocations with workflow inputs, state tuples
// every third block, joins, and aggregates every other block — the node
// mix and fan-in of the tracked workloads, at arbitrary scale.
func SyntheticGraph(n int, seed int64) (*provgraph.Graph, []provgraph.NodeID) {
	b := provgraph.NewBuilder()
	rng := rand.New(rand.NewSource(seed))
	var pool []provgraph.NodeID
	var outs []provgraph.NodeID
	block := 0
	for b.G.TotalNodes() < n {
		module := fmt.Sprintf("M_station%02d", block%24)
		inv := b.BeginInvocation(module, fmt.Sprintf("node%d", block%40), block/97)
		src1 := b.WorkflowInput(fmt.Sprintf("c%d", block*2))
		in1 := b.ModuleInput(inv, src1)
		feeds := []provgraph.NodeID{in1}
		if len(pool) > 0 {
			prev := pool[rng.Intn(len(pool))]
			feeds = append(feeds, b.ModuleInput(inv, prev))
		}
		if block%3 == 0 {
			base := b.BaseTuple(fmt.Sprintf("s%d", block))
			feeds = append(feeds, b.StateTuple(inv, base))
		}
		join := b.Product(feeds...)
		var valueNodes []provgraph.NodeID
		if block%2 == 0 {
			contribs := []provgraph.AggContribution{
				{TupleProv: feeds[0], Value: nested.Int(int64(rng.Intn(32)))},
				{TupleProv: join, Value: nested.Int(int64(rng.Intn(32)))},
			}
			valueNodes = append(valueNodes, b.Aggregate("SUM", contribs, nested.Int(int64(block))))
		}
		out := b.ModuleOutput(inv, join, valueNodes...)
		outs = append(outs, out)
		pool = append(pool, out)
		if len(pool) > 64 {
			pool = pool[1:]
		}
		block++
	}
	return b.G, outs
}

// GraphMemPoint is one scale point of the storage benchmark. Timings are
// best-of-three; BytesPerNode is the heap growth of a buffered columnar
// load divided by node slots.
type GraphMemPoint struct {
	// Nodes is the requested scale (the series key); TotalNodes is the
	// generator's actual slot count, which may overshoot slightly.
	Nodes         int     `json:"nodes"`
	TotalNodes    int     `json:"totalNodes"`
	Edges         int     `json:"edges"`
	FileV3Bytes   int64   `json:"fileV3Bytes"`
	BytesPerNode  float64 `json:"bytesPerNode"`
	OpenV3Ns      int64   `json:"openV3Ns"`
	FindNs        int64   `json:"findNs"`
	LineageNs     int64   `json:"lineageNs"`
	BFSNsPerVisit float64 `json:"bfsNsPerVisit"`
	MappedOpen    bool    `json:"mappedOpen"`
}

// GraphMemReport is the machine-readable result of the graphmem series
// (written to BENCH_graphmem.json; the CI bench-smoke gate compares
// against the checked-in copy).
type GraphMemReport struct {
	Points []GraphMemPoint `json:"points"`
}

// WriteJSON emits the report.
func (r *GraphMemReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadGraphMemReport loads a previously written report.
func ReadGraphMemReport(path string) (*GraphMemReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r GraphMemReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("workflowgen: %s: %w", path, err)
	}
	return &r, nil
}

// bestOf runs fn trials times and returns the fastest wall time.
func bestOf(trials int, fn func() error) (time.Duration, error) {
	best := time.Duration(1 << 62)
	for i := 0; i < trials; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// GraphMemSeries measures one point per node count: the snapshot file
// size, resident bytes per node of a buffered load, the latency of the
// (mapped where supported) open, and find/lineage/BFS timings over the
// opened graph.
func GraphMemSeries(nodeCounts []int, seed int64) (*GraphMemReport, error) {
	dir, err := os.MkdirTemp("", "graphmem")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	report := &GraphMemReport{}
	for _, n := range nodeCounts {
		g, outs := SyntheticGraph(n, seed)
		snap := &store.Snapshot{Graph: g}
		v3Path := filepath.Join(dir, "g.v3.lpsk")
		if err := store.Save(v3Path, snap); err != nil {
			return nil, err
		}
		pt := GraphMemPoint{Nodes: n, TotalNodes: g.TotalNodes(), Edges: g.NumEdges()}
		if fi, err := os.Stat(v3Path); err == nil {
			pt.FileV3Bytes = fi.Size()
		}
		target := outs[len(outs)-1]
		g, snap, outs = nil, nil, nil

		// Heap cost of a buffered columnar load.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		loaded, err := store.Load(v3Path)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		pt.BytesPerNode = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(loaded.Graph.TotalNodes())
		loaded = nil

		var mapped *store.Snapshot
		openV3, err := bestOf(3, func() error {
			var err error
			mapped, err = store.LoadMapped(v3Path)
			return err
		})
		if err != nil {
			return nil, err
		}
		pt.OpenV3Ns = openV3.Nanoseconds()
		pt.MappedOpen = mapped.LazyOutputs != nil

		// Query throughput over the opened (mapped) graph: an indexed
		// find over the persisted postings (served straight from file
		// memory in mapped mode), the ancestry traversal behind lineage,
		// and a forward reachability sweep. Measured at the store layer so
		// the generator package stays below internal/core in the import
		// graph (core's benchmarks drive these workloads).
		post := mapped.Postings
		find, err := bestOf(3, func() error {
			if len(post.TypeIDs(provgraph.TypeInvocation)) == 0 {
				return fmt.Errorf("workflowgen: no invocation nodes at n=%d", n)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pt.FindNs = find.Nanoseconds()
		lineage, err := bestOf(3, func() error {
			if len(mapped.Graph.Ancestors(target)) == 0 {
				return fmt.Errorf("workflowgen: empty lineage at n=%d", n)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pt.LineageNs = lineage.Nanoseconds()

		roots := post.TypeIDs(provgraph.TypeWorkflowInput)
		if len(roots) > 8 {
			roots = roots[:8]
		}
		visited := 0
		bfs, err := bestOf(3, func() error {
			visited = 0
			for _, r := range roots {
				visited += len(mapped.Graph.Descendants(r))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if visited > 0 {
			pt.BFSNsPerVisit = float64(bfs.Nanoseconds()) / float64(visited)
		}
		report.Points = append(report.Points, pt)
	}
	return report, nil
}

// graphMemCounts picks the scale series: the Scale's explicit list, else a
// small default that keeps test runs fast.
func graphMemCounts(s Scale) []int {
	if len(s.GraphMemNodes) > 0 {
		return s.GraphMemNodes
	}
	return []int{20_000}
}

// FigGraphMem reports the storage benchmark as a printable figure:
// bytes/node, open latency, and query timings per scale point.
func FigGraphMem(s Scale) (*Figure, error) {
	f, _, err := RunGraphMem(s)
	return f, err
}

// RunGraphMem measures the graphmem series at the given scale and returns
// both the printable figure and the machine-readable report.
func RunGraphMem(s Scale) (*Figure, *GraphMemReport, error) {
	report, err := GraphMemSeries(graphMemCounts(s), s.Seed)
	if err != nil {
		return nil, nil, err
	}
	f := &Figure{
		ID: "graphmem", Title: "Columnar graph storage: memory and open latency",
		XLabel: "graph nodes", YLabel: "seconds / bytes",
	}
	for _, p := range report.Points {
		x := float64(p.Nodes)
		f.Add("v3 mapped open (s)", x, float64(p.OpenV3Ns)/1e9)
		f.Add("bytes/node", x, p.BytesPerNode)
		f.Add("find (s)", x, float64(p.FindNs)/1e9)
		f.Add("lineage (s)", x, float64(p.LineageNs)/1e9)
		f.Add("bfs ns/visit", x, p.BFSNsPerVisit)
	}
	if len(report.Points) > 0 {
		last := report.Points[len(report.Points)-1]
		f.Note("largest point: %d nodes, v3 file %.1f MB, mapped=%v",
			last.TotalNodes, float64(last.FileV3Bytes)/1e6, last.MappedOpen)
	}
	return f, report, nil
}

// CompareGraphMem gates the current report against a checked-in baseline:
// bytes/node may not regress by more than tol (fractional, e.g. 0.20) at
// any shared scale point. It is hardware-portable; latencies are reported
// but not gated (store's TestLoadMappedAllocsDoNotScale guards the open).
func CompareGraphMem(baseline, current *GraphMemReport, tol float64) error {
	byNodes := map[int]GraphMemPoint{}
	for _, p := range baseline.Points {
		byNodes[p.Nodes] = p
	}
	checked := 0
	for _, cur := range current.Points {
		base, ok := byNodes[cur.Nodes]
		if !ok {
			continue
		}
		checked++
		if base.BytesPerNode > 0 && cur.BytesPerNode > base.BytesPerNode*(1+tol) {
			return fmt.Errorf("graphmem regression at %d nodes: bytes/node %.1f exceeds baseline %.1f by more than %.0f%%",
				cur.Nodes, cur.BytesPerNode, base.BytesPerNode, tol*100)
		}
	}
	if checked == 0 {
		return fmt.Errorf("graphmem: no scale points shared with the baseline report")
	}
	return nil
}
