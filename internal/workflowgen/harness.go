package workflowgen

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"lipstick/internal/cluster"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
)

// Scale sets the experiment sizes. DefaultScale keeps laptop-test runtimes
// in seconds; PaperScale reproduces the paper's parameters (Section 5.3:
// numCars=20,000, up to 100 executions for tracking, 24 station modules,
// the full 1961-2000 history, 5 runs per setting).
type Scale struct {
	NumCars            int
	DealerExecs        []int
	ArcticExecs        []int
	ArcticStations     int
	ArcticHistoryYears int // 0 = full record
	GraphExecs         int
	SubgraphNodes      int
	Reducers           []int
	Trials             int
	Seed               int64
	// GraphMemNodes lists the synthetic graph sizes of the graphmem
	// storage benchmark; empty selects a small smoke series.
	GraphMemNodes []int
}

// DefaultScale is sized for tests and quick local runs.
var DefaultScale = Scale{
	NumCars:            1200,
	DealerExecs:        []int{2, 5, 10, 20},
	ArcticExecs:        []int{2, 5, 10},
	ArcticStations:     8,
	ArcticHistoryYears: 3,
	GraphExecs:         6,
	SubgraphNodes:      50,
	Reducers:           []int{1, 2, 3, 4, 6, 10, 20, 30, 40, 54},
	Trials:             1,
	Seed:               1,
	GraphMemNodes:      []int{100_000, 250_000},
}

// PaperScale reproduces Section 5.3's parameters.
var PaperScale = Scale{
	NumCars:            20000,
	DealerExecs:        []int{2, 10, 20, 40, 60, 80, 100},
	ArcticExecs:        []int{20, 40, 60, 80, 100},
	ArcticStations:     24,
	ArcticHistoryYears: 0,
	GraphExecs:         100,
	SubgraphNodes:      50,
	Reducers:           []int{1, 2, 3, 4, 6, 10, 20, 30, 40, 54},
	Trials:             5,
	Seed:               1,
	GraphMemNodes:      []int{100_000, 500_000, 1_000_000, 2_000_000, 5_000_000},
}

// Point is one measurement of one series.
type Point struct {
	Series string
	X      float64
	// XLabel overrides the numeric X for categorical axes (selectivity).
	XLabel string
	Y      float64
}

// Figure is a reproduced figure: a set of measured series.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Points []Point
	Notes  []string
}

// Add appends a measurement.
func (f *Figure) Add(series string, x float64, y float64) {
	f.Points = append(f.Points, Point{Series: series, X: x, Y: y})
}

// AddLabeled appends a categorical measurement.
func (f *Figure) AddLabeled(series, xLabel string, y float64) {
	f.Points = append(f.Points, Point{Series: series, XLabel: xLabel, Y: y})
}

// Note records a free-form observation printed with the figure.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Series returns the distinct series names in first-appearance order.
func (f *Figure) Series() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range f.Points {
		if !seen[p.Series] {
			seen[p.Series] = true
			out = append(out, p.Series)
		}
	}
	return out
}

// SeriesPoints returns the points of one series.
func (f *Figure) SeriesPoints(name string) []Point {
	var out []Point
	for _, p := range f.Points {
		if p.Series == name {
			out = append(out, p)
		}
	}
	return out
}

// Print renders the figure as aligned rows, one per (series, x).
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "   x-axis: %s | y-axis: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series() {
		fmt.Fprintf(w, "   series %q:\n", s)
		for _, p := range f.SeriesPoints(s) {
			x := p.XLabel
			if x == "" {
				x = trimFloat(p.X)
			}
			fmt.Fprintf(w, "     %-10s %12.6g\n", x, p.Y)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// timeIt measures fn averaged over trials.
func timeIt(trials int, fn func()) time.Duration {
	if trials < 1 {
		trials = 1
	}
	var total time.Duration
	for i := 0; i < trials; i++ {
		start := time.Now()
		fn()
		total += time.Since(start)
	}
	return total / time.Duration(trials)
}

// Fig5a reproduces Figure 5(a): Car-dealerships execution time per
// execution versus the number of prior executions, with and without
// provenance tracking.
func Fig5a(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig5a", Title: "Pig execution time, Car dealerships (local mode)",
		XLabel: "number of executions", YLabel: "seconds per execution",
	}
	for _, numExec := range s.DealerExecs {
		for _, gran := range []workflow.Granularity{workflow.Fine, workflow.Plain} {
			series := "provenance"
			if gran == workflow.Plain {
				series = "no provenance"
			}
			var runErr error
			d := timeIt(s.Trials, func() {
				run, err := NewDealershipRun(DealershipParams{
					NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed,
					Gran: gran, StopOnPurchase: false,
				})
				if err != nil {
					runErr = err
					return
				}
				runErr = run.ExecuteAll()
			})
			if runErr != nil {
				return nil, runErr
			}
			f.Add(series, float64(numExec), d.Seconds()/float64(numExec))
		}
	}
	return f, nil
}

// arcticConfig names one Figure 5(b) workflow variant.
type arcticConfig struct {
	name   string
	topo   Topology
	fanOut int
}

// Fig5b reproduces Figure 5(b): Arctic-stations execution time for
// parallel, serial and dense topologies, with and without provenance.
func Fig5b(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig5b", Title: "Arctic stations execution time (24 modules, month selectivity)",
		XLabel: "number of executions", YLabel: "seconds per execution",
	}
	fanOut := s.ArcticStations / 4
	if fanOut < 1 {
		fanOut = 1
	}
	configs := []arcticConfig{
		{"parallel", Parallel, 0},
		{"dense", Dense, fanOut},
		{"serial", Serial, 0},
	}
	for _, cfg := range configs {
		for _, numExec := range s.ArcticExecs {
			for _, gran := range []workflow.Granularity{workflow.Fine, workflow.Plain} {
				suffix := " (prov)"
				if gran == workflow.Plain {
					suffix = " (no prov)"
				}
				var runErr error
				d := timeIt(s.Trials, func() {
					run, err := NewArcticRun(ArcticParams{
						Stations: s.ArcticStations, Topology: cfg.topo, FanOut: cfg.fanOut,
						Selectivity: SelMonth, NumExec: numExec, Seed: s.Seed,
						Gran: gran, HistoryYears: s.ArcticHistoryYears,
					})
					if err != nil {
						runErr = err
						return
					}
					runErr = run.ExecuteAll()
				})
				if runErr != nil {
					return nil, runErr
				}
				f.Add(cfg.name+suffix, float64(numExec), d.Seconds()/float64(numExec))
			}
		}
	}
	return f, nil
}

// Fig5c reproduces Figure 5(c): percent improvement from additional
// reducers on the simulated 27-node cluster, with the reduce-task costs
// taken from a real run's per-dealership work and the provenance variant
// scaled by the measured tracking overhead.
func Fig5c(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig5c", Title: "Car dealerships: impact of parallelism (simulated 27-node cluster)",
		XLabel: "number of reducers", YLabel: "% improvement vs 1 reducer",
	}
	execs := 5
	params := DealershipParams{NumCars: s.NumCars, NumExec: execs, Seed: s.Seed, StopOnPurchase: false}

	params.Gran = workflow.Plain
	plainRun, err := NewDealershipRun(params)
	if err != nil {
		return nil, err
	}
	var runErr error
	plainTime := timeIt(s.Trials, func() {
		run, err := NewDealershipRun(params)
		if err != nil {
			runErr = err
			return
		}
		runErr = run.ExecuteAll()
	})
	if runErr != nil {
		return nil, runErr
	}
	if err := plainRun.ExecuteAll(); err != nil {
		return nil, err
	}
	params.Gran = workflow.Fine
	fineTime := timeIt(s.Trials, func() {
		run, err := NewDealershipRun(params)
		if err != nil {
			runErr = err
			return
		}
		runErr = run.ExecuteAll()
	})
	if runErr != nil {
		return nil, runErr
	}
	overhead := float64(fineTime) / float64(plainTime)
	if overhead < 1 {
		overhead = 1
	}

	// Reduce-task costs: each dealership's bid generation is one natural
	// reduce unit, costed by its inventory of the buyer's model.
	mean := 0.0
	for _, c := range plainRun.CarsOfModelPerDealer {
		mean += float64(c)
	}
	mean /= 4
	if mean == 0 {
		mean = 1
	}
	job := func(scale float64) *cluster.Job {
		tasks := make([]cluster.Task, 4)
		for k, c := range plainRun.CarsOfModelPerDealer {
			cost := scale * float64(c) / mean
			if cost == 0 {
				cost = 0.05 * scale
			}
			tasks[k] = cluster.Task{Key: uint64(k), Cost: cost}
		}
		return &cluster.Job{Name: "dealerships", Stages: []cluster.Stage{{
			Name: "bids", SerialCost: 1.2 * scale, Tasks: tasks,
		}}}
	}
	c := cluster.Default()
	for series, scale := range map[string]float64{"no provenance": 1, "provenance": overhead} {
		points, err := c.Sweep(job(scale), s.Reducers)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			f.Add(series, float64(p.Reducers), p.Improvement)
		}
	}
	f.Note("measured tracking overhead factor: %.2fx", overhead)
	return f, nil
}

// snapshotOf serializes a run's provenance into the tracker's on-disk
// format, returning the bytes the Query Processor would load.
func snapshotOf(r *workflow.Runner, execs []*workflow.Execution) ([]byte, error) {
	snap := &store.Snapshot{Graph: r.Graph()}
	for _, e := range execs {
		for node, rels := range e.Outputs {
			for rel, rrel := range rels {
				dump := store.RelationDump{Execution: e.Index, Node: node, Relation: rel}
				for _, t := range rrel.Tuples {
					dump.Tuples = append(dump.Tuples, store.AnnotatedTuple{Tuple: t.Tuple, Prov: t.Prov, Mult: t.Mult})
				}
				snap.Outputs = append(snap.Outputs, dump)
			}
		}
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildTime measures loading the snapshot and building the in-memory
// graph (Section 5.5's "time it takes to build the provenance graph in
// memory from provenance-annotated tuples").
func buildTime(trials int, data []byte) (time.Duration, *store.Snapshot, error) {
	var snap *store.Snapshot
	var err error
	d := timeIt(trials, func() {
		snap, err = store.Read(bytes.NewReader(data))
	})
	return d, snap, err
}

// Fig6a reproduces Figure 6(a): graph building time versus the number of
// graph nodes, Car dealerships.
func Fig6a(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig6a", Title: "Provenance graph building time, Car dealerships",
		XLabel: "graph nodes", YLabel: "seconds",
	}
	for _, numExec := range s.DealerExecs {
		run, err := RunDealership(DealershipParams{
			NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed,
			Gran: workflow.Fine, StopOnPurchase: false,
		})
		if err != nil {
			return nil, err
		}
		data, err := snapshotOf(run.Runner, run.Executions)
		if err != nil {
			return nil, err
		}
		d, snap, err := buildTime(s.Trials, data)
		if err != nil {
			return nil, err
		}
		f.Add("build", float64(snap.Graph.NumNodes()), d.Seconds())
	}
	return f, nil
}

// arcticBuildPoint runs one Arctic config and measures graph build time.
func arcticBuildPoint(s Scale, stations int, topo Topology, fanOut int, sel Selectivity) (nodes int, dur time.Duration, err error) {
	run, err := NewArcticRun(ArcticParams{
		Stations: stations, Topology: topo, FanOut: fanOut, Selectivity: sel,
		NumExec: s.GraphExecs, Seed: s.Seed, Gran: workflow.Fine,
		HistoryYears: s.ArcticHistoryYears,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := run.ExecuteAll(); err != nil {
		return 0, 0, err
	}
	data, err := snapshotOf(run.Runner, run.Executions)
	if err != nil {
		return 0, 0, err
	}
	d, snap, err := buildTime(s.Trials, data)
	if err != nil {
		return 0, 0, err
	}
	return snap.Graph.NumNodes(), d, nil
}

// Fig6b reproduces Figure 6(b): Arctic graph building time by selectivity
// for dense fan-out-2 workflows of 2-24 modules.
func Fig6b(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig6b", Title: "Graph building time, Arctic dense fan-out 2",
		XLabel: "selectivity", YLabel: "seconds",
	}
	sizes := []int{2, 6, 12, 24}
	for _, size := range sizes {
		if size > s.ArcticStations {
			continue
		}
		for _, sel := range Selectivities {
			_, d, err := arcticBuildPoint(s, size, Dense, 2, sel)
			if err != nil {
				return nil, err
			}
			f.AddLabeled(fmt.Sprintf("%d modules", size), string(sel), d.Seconds())
		}
	}
	return f, nil
}

// Fig6c reproduces Figure 6(c): Arctic graph building time by selectivity
// across topologies at 24 modules.
func Fig6c(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig6c", Title: fmt.Sprintf("Graph building time, Arctic %d modules", s.ArcticStations),
		XLabel: "selectivity", YLabel: "seconds",
	}
	configs := []arcticConfig{
		{"serial", Serial, 0},
		{"parallel", Parallel, 0},
	}
	for _, fo := range []int{2, 3, 6, 12} {
		if fo < s.ArcticStations {
			configs = append(configs, arcticConfig{fmt.Sprintf("dense (fan-out %d)", fo), Dense, fo})
		}
	}
	for _, cfg := range configs {
		for _, sel := range Selectivities {
			_, d, err := arcticBuildPoint(s, s.ArcticStations, cfg.topo, cfg.fanOut, sel)
			if err != nil {
				return nil, err
			}
			f.AddLabeled(cfg.name, string(sel), d.Seconds())
		}
	}
	return f, nil
}

// Fig7a reproduces Figure 7(a): ZoomOut time versus graph size for the
// dealer and aggregate modules (and the paper's ZoomIn observation).
func Fig7a(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig7a", Title: "ZoomOut / ZoomIn time, Car dealerships",
		XLabel: "graph nodes", YLabel: "milliseconds",
	}
	dealerMods := []string{"M_dealer1", "M_dealer2", "M_dealer3", "M_dealer4"}
	for _, numExec := range s.DealerExecs {
		run, err := RunDealership(DealershipParams{
			NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed,
			Gran: workflow.Fine, StopOnPurchase: false,
		})
		if err != nil {
			return nil, err
		}
		base := run.Runner.Graph()
		nodes := float64(base.NumNodes())

		dOut, dIn := zoomTrials(s.Trials, base, dealerMods)
		f.Add("dealer zoom-out", nodes, float64(dOut.Microseconds())/1000)
		f.Add("dealer zoom-in", nodes, float64(dIn.Microseconds())/1000)
		aOut, aIn := zoomTrials(s.Trials, base, []string{"M_agg"})
		f.Add("aggregate zoom-out", nodes, float64(aOut.Microseconds())/1000)
		f.Add("aggregate zoom-in", nodes, float64(aIn.Microseconds())/1000)
	}
	return f, nil
}

// zoomTrials averages, over trials, one ZoomOut of mods on an overlay of
// a fresh clone of base and the ZoomIn that undoes it. A fresh clone has
// an empty zoom memo, so every ZoomOut runs the Definition 4.1 kernel;
// the clone is taken outside the timed region.
func zoomTrials(trials int, base *provgraph.Graph, mods []string) (out, in time.Duration) {
	trials = max(trials, 1)
	for range trials {
		ov := provgraph.NewOverlay(base.Clone())
		start := time.Now()
		rec := ov.ZoomOut(mods...)
		zoomed := time.Now()
		ov.ZoomIn(rec)
		in += time.Since(zoomed)
		out += zoomed.Sub(start)
	}
	return out / time.Duration(trials), in / time.Duration(trials)
}

// Fig7b reproduces Figure 7(b): subgraph query time versus result size on
// the Car-dealerships graph, for the 50 highest-fan-out nodes.
func Fig7b(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig7b", Title: "Subgraph query time, Car dealerships",
		XLabel: "subgraph nodes", YLabel: "milliseconds",
	}
	numExec := s.DealerExecs[len(s.DealerExecs)-1]
	run, err := RunDealership(DealershipParams{
		NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed,
		Gran: workflow.Fine, StopOnPurchase: false,
	})
	if err != nil {
		return nil, err
	}
	g := run.Runner.Graph()
	for _, id := range HighFanoutNodes(g, s.SubgraphNodes) {
		var sub *provgraph.SubgraphResult
		d := timeIt(s.Trials, func() { sub = g.Subgraph(id) })
		f.Add("subgraph", float64(sub.Size()), float64(d.Microseconds())/1000)
	}
	sort.Slice(f.Points, func(i, j int) bool { return f.Points[i].X < f.Points[j].X })
	return f, nil
}

// Fig7c reproduces Figure 7(c): average subgraph query time by selectivity
// and topology on the Arctic workflows.
func Fig7c(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "fig7c", Title: fmt.Sprintf("Subgraph query time, Arctic %d modules", s.ArcticStations),
		XLabel: "selectivity", YLabel: "milliseconds (avg over high-fan-out nodes)",
	}
	configs := []arcticConfig{
		{"serial", Serial, 0},
		{"parallel", Parallel, 0},
	}
	for _, fo := range []int{2, 3, 6, 12} {
		if fo < s.ArcticStations {
			configs = append(configs, arcticConfig{fmt.Sprintf("dense (fan-out %d)", fo), Dense, fo})
		}
	}
	for _, cfg := range configs {
		for _, sel := range Selectivities {
			run, err := NewArcticRun(ArcticParams{
				Stations: s.ArcticStations, Topology: cfg.topo, FanOut: cfg.fanOut,
				Selectivity: sel, NumExec: s.GraphExecs, Seed: s.Seed,
				Gran: workflow.Fine, HistoryYears: s.ArcticHistoryYears,
			})
			if err != nil {
				return nil, err
			}
			if err := run.ExecuteAll(); err != nil {
				return nil, err
			}
			g := run.Runner.Graph()
			targets := HighFanoutNodes(g, s.SubgraphNodes)
			total := time.Duration(0)
			for _, id := range targets {
				total += timeIt(1, func() { g.Subgraph(id) })
			}
			avgMs := float64(total.Microseconds()) / 1000 / float64(len(targets))
			f.AddLabeled(cfg.name, string(sel), avgMs)
		}
	}
	return f, nil
}

// FigDelete reproduces the Section 5.6 deletion measurement: deletion
// propagation from the 50 highest-fan-out nodes is sub-millisecond to
// low-millisecond per node.
func FigDelete(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "delete", Title: "Deletion propagation time, Car dealerships",
		XLabel: "nodes removed by the propagation", YLabel: "milliseconds",
	}
	numExec := s.DealerExecs[len(s.DealerExecs)-1]
	run, err := RunDealership(DealershipParams{
		NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed,
		Gran: workflow.Fine, StopOnPurchase: false,
	})
	if err != nil {
		return nil, err
	}
	g := run.Runner.Graph()
	maxMs := 0.0
	for _, id := range HighFanoutNodes(g, s.SubgraphNodes) {
		var res *provgraph.DeletionResult
		d := timeIt(s.Trials, func() { res = g.PropagateDeletion(id) })
		ms := float64(d.Microseconds()) / 1000
		if ms > maxMs {
			maxMs = ms
		}
		f.Add("delete", float64(res.Size()), ms)
	}
	f.Note("max per-node propagation time: %.3f ms", maxMs)
	sort.Slice(f.Points, func(i, j int) bool { return f.Points[i].X < f.Points[j].X })
	return f, nil
}

// FigFineGrained reproduces the Section 5.5 dependency statistics,
// contrasting fine- and coarse-grained provenance.
func FigFineGrained(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "finegrained", Title: "Output dependency profile (Section 5.5)",
		XLabel: "measurement", YLabel: "value",
	}
	fineRun, err := RunDealership(DealershipParams{
		NumCars: s.NumCars, NumExec: 3, Seed: s.Seed,
		Gran: workflow.Fine, StopOnPurchase: false,
	})
	if err != nil {
		return nil, err
	}
	m := MeasureFineGrainedness(fineRun)
	f.AddLabeled("fine", "state tuples", float64(m.StateTuples))
	f.AddLabeled("fine", "bid avg state deps", m.Bids.AvgState)
	f.AddLabeled("fine", "bid state share %", 100*m.StateFraction())
	f.AddLabeled("fine", "bid avg input deps", m.Bids.AvgInput)
	f.AddLabeled("fine", "best avg state deps", m.Best.AvgState)
	f.AddLabeled("fine", "sale avg input deps", m.Sales.AvgInput)
	f.Note("fine-grained: %s", m)

	coarseRun, err := RunDealership(DealershipParams{
		NumCars: s.NumCars, NumExec: 3, Seed: s.Seed,
		Gran: workflow.Coarse, StopOnPurchase: false,
	})
	if err != nil {
		return nil, err
	}
	// Under coarse provenance every output depends on every workflow input
	// of its derivation cone; state is not even represented (100% opaque).
	g := coarseRun.Runner.Graph()
	totalInputs := 0
	for _, e := range coarseRun.Executions {
		totalInputs += len(e.InputNodes)
	}
	var avgInputs float64
	outputs := 0
	for _, invID := range g.InvocationsOf("M_agg") {
		for _, out := range g.Invocation(invID).Outputs {
			inputs := 0
			for _, anc := range g.Ancestors(out) {
				if g.Node(anc).Type == provgraph.TypeWorkflowInput {
					inputs++
				}
			}
			avgInputs += float64(inputs)
			outputs++
		}
	}
	if outputs > 0 {
		avgInputs /= float64(outputs)
	}
	f.AddLabeled("coarse", "workflow inputs", float64(totalInputs))
	f.AddLabeled("coarse", "best avg input deps", avgInputs)
	f.Note("coarse-grained: outputs depend on all inputs and the full opaque state")
	return f, nil
}

// FigNodes reports graph size versus number of executions (the linearity
// observation of Section 5.5).
func FigNodes(s Scale) (*Figure, error) {
	f := &Figure{
		ID: "nodes", Title: "Provenance graph size vs executions",
		XLabel: "executions", YLabel: "graph nodes",
	}
	for _, numExec := range s.DealerExecs {
		run, err := RunDealership(DealershipParams{
			NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed,
			Gran: workflow.Fine, StopOnPurchase: false,
		})
		if err != nil {
			return nil, err
		}
		size := MeasureGraphSize(run.Runner)
		f.Add("dealerships nodes", float64(numExec), float64(size.Nodes))
		f.Add("dealerships edges", float64(numExec), float64(size.Edges))
	}
	return f, nil
}

// FigureIDs lists the reproducible experiments in paper order.
var FigureIDs = []string{
	"fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
	"fig7a", "fig7b", "fig7c", "delete", "finegrained", "nodes",
	"graphmem",
}

// RunFigure dispatches a figure by id.
func RunFigure(id string, s Scale) (*Figure, error) {
	switch id {
	case "fig5a":
		return Fig5a(s)
	case "fig5b":
		return Fig5b(s)
	case "fig5c":
		return Fig5c(s)
	case "fig6a":
		return Fig6a(s)
	case "fig6b":
		return Fig6b(s)
	case "fig6c":
		return Fig6c(s)
	case "fig7a":
		return Fig7a(s)
	case "fig7b":
		return Fig7b(s)
	case "fig7c":
		return Fig7c(s)
	case "delete":
		return FigDelete(s)
	case "finegrained":
		return FigFineGrained(s)
	case "nodes":
		return FigNodes(s)
	case "graphmem":
		return FigGraphMem(s)
	default:
		return nil, fmt.Errorf("workflowgen: unknown figure %q (known: %v)", id, FigureIDs)
	}
}
