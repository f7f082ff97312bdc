package workflowgen

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

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

// Clock times the points of a figure. name identifies one point as
// "<series>/<x>"; trial runs one measurement and returns its own
// duration, so what a trial does before it starts its timer stays off
// the clock. The clock runs trial as often as it chooses and returns the
// duration the point reports.
type Clock func(name string, trial func() time.Duration) time.Duration

// MeanOf returns the clock that averages trials trials of each point
// (at least one): `workflowgen -fig` runs Scale.Trials of them.
func MeanOf(trials int) Clock {
	trials = max(trials, 1)
	return func(_ string, trial func() time.Duration) time.Duration {
		var total time.Duration
		for range trials {
			total += trial()
		}
		return total / time.Duration(trials)
	}
}

// pointName names the clock point of series at x.
func pointName(series string, x any) string { return fmt.Sprintf("%s/%v", series, x) }

// timeOf returns a trial timing fn.
func timeOf(fn func()) func() time.Duration {
	return func() time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}
}

// timeErr returns a trial timing fn; fn's first error sticks in *errp.
func timeErr(errp *error, fn func() error) func() time.Duration {
	return timeOf(func() {
		if err := fn(); err != nil && *errp == nil {
			*errp = err
		}
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// executable is a built workflow run: a DealershipRun or an ArcticRun.
type executable interface{ ExecuteAll() error }

// executeTrial is a trial that builds a run off the clock (inventory
// seeding, workflow compile) and times its executions only. It collects
// before starting the clock, so no earlier trial's garbage is collected
// on this one's time.
func executeTrial(errp *error, build func() (executable, error)) func() time.Duration {
	return func() time.Duration {
		run, err := build()
		if err != nil {
			if *errp == nil {
				*errp = err
			}
			return 0
		}
		runtime.GC()
		return timeErr(errp, run.ExecuteAll)()
	}
}

// dealershipTrial is the executeTrial of one dealership run.
func dealershipTrial(errp *error, p DealershipParams) func() time.Duration {
	return executeTrial(errp, func() (executable, error) { return NewDealershipRun(p) })
}

// Fig5a reproduces Figure 5(a): Car-dealerships execution time per
// execution versus the number of prior executions, with and without
// provenance tracking.
func Fig5a(s Scale, clock Clock) (*Figure, error) {
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
			var err error
			d := clock(pointName(series, numExec), dealershipTrial(&err, DealershipParams{
				NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed, Gran: gran,
			}))
			if err != nil {
				return nil, err
			}
			f.Add(series, float64(numExec), d.Seconds()/float64(numExec))
		}
	}
	return f, nil
}

// arcticConfig names one Arctic workflow variant.
type arcticConfig struct {
	name     string
	stations int
	topo     Topology
	fanOut   int
}

// arcticTopologies lists Figures 6(c)/7(c)'s variants at the scale's
// station count: serial, parallel, and every dense fan-out below it.
func arcticTopologies(s Scale) []arcticConfig {
	n := s.ArcticStations
	configs := []arcticConfig{
		{"serial", n, Serial, 0},
		{"parallel", n, Parallel, 0},
	}
	for _, fo := range []int{2, 3, 6, 12} {
		if fo < n {
			configs = append(configs, arcticConfig{fmt.Sprintf("dense (fan-out %d)", fo), n, Dense, fo})
		}
	}
	return configs
}

// Fig5b reproduces Figure 5(b): Arctic-stations execution time for
// parallel, serial and dense topologies, with and without provenance.
func Fig5b(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "fig5b", Title: "Arctic stations execution time (24 modules, month selectivity)",
		XLabel: "number of executions", YLabel: "seconds per execution",
	}
	n := s.ArcticStations
	configs := []arcticConfig{
		{"parallel", n, Parallel, 0},
		{"dense", n, Dense, max(n/4, 1)},
		{"serial", n, Serial, 0},
	}
	for _, cfg := range configs {
		for _, numExec := range s.ArcticExecs {
			for _, gran := range []workflow.Granularity{workflow.Fine, workflow.Plain} {
				series := cfg.name + " (prov)"
				if gran == workflow.Plain {
					series = cfg.name + " (no prov)"
				}
				p := ArcticParams{
					Stations: cfg.stations, Topology: cfg.topo, FanOut: cfg.fanOut,
					Selectivity: SelMonth, NumExec: numExec, Seed: s.Seed,
					Gran: gran, HistoryYears: s.ArcticHistoryYears,
				}
				var err error
				d := clock(pointName(series, numExec), executeTrial(&err, func() (executable, error) {
					return NewArcticRun(p)
				}))
				if err != nil {
					return nil, err
				}
				f.Add(series, float64(numExec), d.Seconds()/float64(numExec))
			}
		}
	}
	return f, nil
}

// overheadPairs is the number of plain/tracked run pairs Fig5c times to
// measure the tracking overhead. One pair of runs of a few milliseconds
// each is noise: its ratio fell below 1 in about half of the runs.
const overheadPairs = 9

// Fig5c reproduces Figure 5(c): percent improvement from additional
// reducers on the simulated 27-node cluster, with the reduce-task costs
// taken from a real run's per-dealership work and the provenance variant
// scaled by the measured tracking overhead: the clock times a plain and
// a tracked run, alternately, overheadPairs times, and the factor is the
// median of the pairs' ratios.
func Fig5c(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "fig5c", Title: "Car dealerships: impact of parallelism (simulated 27-node cluster)",
		XLabel: "number of reducers", YLabel: "% improvement vs 1 reducer",
	}
	params := DealershipParams{NumCars: s.NumCars, NumExec: 5, Seed: s.Seed, Gran: workflow.Plain}
	plainRun, err := RunDealership(params)
	if err != nil {
		return nil, err
	}
	plain := dealershipTrial(&err, params)
	params.Gran = workflow.Fine
	tracked := dealershipTrial(&err, params)
	plain() // the first pair only warms up
	tracked()
	var ratios []float64
	for range overheadPairs {
		p := clock("plain run", plain)
		t := clock("tracked run", tracked)
		if p > 0 {
			ratios = append(ratios, float64(t)/float64(p))
		}
	}
	if err != nil {
		return nil, err
	}
	overhead := 1.0
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		overhead = max(ratios[len(ratios)/2], 1)
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
	jobAt := func(scale float64) job {
		tasks := make([]reduceTask, 4)
		for k, c := range plainRun.CarsOfModelPerDealer {
			cost := scale * float64(c) / mean
			if cost == 0 {
				cost = 0.05 * scale
			}
			tasks[k] = reduceTask{key: uint64(k), cost: cost}
		}
		return job{serialCost: 1.2 * scale, tasks: tasks}
	}
	for _, v := range []struct {
		series string
		scale  float64
	}{{"no provenance", 1}, {"provenance", overhead}} {
		points, err := paperCluster.sweep(jobAt(v.scale), s.Reducers)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			f.Add(v.series, float64(p.reducers), p.improvement)
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

// buildTime times loading the snapshot data and building the in-memory
// graph (Section 5.5's "time it takes to build the provenance graph in
// memory from provenance-annotated tuples").
func buildTime(clock Clock, name string, data []byte) (time.Duration, error) {
	var err error
	d := clock(name, timeErr(&err, func() error {
		_, err := store.Read(bytes.NewReader(data))
		return err
	}))
	return d, err
}

// Fig6a reproduces Figure 6(a): graph building time versus the number of
// graph nodes, Car dealerships.
func Fig6a(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "fig6a", Title: "Provenance graph building time, Car dealerships",
		XLabel: "graph nodes", YLabel: "seconds",
	}
	for _, numExec := range s.DealerExecs {
		run, err := RunDealership(DealershipParams{
			NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed, Gran: workflow.Fine,
		})
		if err != nil {
			return nil, err
		}
		data, err := snapshotOf(run.Runner, run.Executions)
		if err != nil {
			return nil, err
		}
		nodes := run.Runner.Graph().NumNodes()
		d, err := buildTime(clock, pointName("build", nodes), data)
		if err != nil {
			return nil, err
		}
		f.Add("build", float64(nodes), d.Seconds())
	}
	return f, nil
}

// arcticGraph runs one tracked Arctic config over the scale's
// GraphExecs executions.
func arcticGraph(s Scale, cfg arcticConfig, sel Selectivity) (*ArcticRun, error) {
	run, err := NewArcticRun(ArcticParams{
		Stations: cfg.stations, Topology: cfg.topo, FanOut: cfg.fanOut, Selectivity: sel,
		NumExec: s.GraphExecs, Seed: s.Seed, Gran: workflow.Fine,
		HistoryYears: s.ArcticHistoryYears,
	})
	if err != nil {
		return nil, err
	}
	return run, run.ExecuteAll()
}

// arcticBuildFigure adds one graph-build point per config and selectivity
// (Figures 6(b) and 6(c)).
func arcticBuildFigure(f *Figure, s Scale, clock Clock, configs []arcticConfig) (*Figure, error) {
	for _, cfg := range configs {
		for _, sel := range Selectivities {
			run, err := arcticGraph(s, cfg, sel)
			if err != nil {
				return nil, err
			}
			data, err := snapshotOf(run.Runner, run.Executions)
			if err != nil {
				return nil, err
			}
			d, err := buildTime(clock, pointName(cfg.name, sel), data)
			if err != nil {
				return nil, err
			}
			f.AddLabeled(cfg.name, string(sel), d.Seconds())
		}
	}
	return f, nil
}

// Fig6b reproduces Figure 6(b): Arctic graph building time by selectivity
// for dense fan-out-2 workflows of 2-24 modules.
func Fig6b(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "fig6b", Title: "Graph building time, Arctic dense fan-out 2",
		XLabel: "selectivity", YLabel: "seconds",
	}
	var configs []arcticConfig
	for _, size := range []int{2, 6, 12, 24} {
		if size <= s.ArcticStations {
			configs = append(configs, arcticConfig{fmt.Sprintf("%d modules", size), size, Dense, 2})
		}
	}
	return arcticBuildFigure(f, s, clock, configs)
}

// Fig6c reproduces Figure 6(c): Arctic graph building time by selectivity
// across topologies at 24 modules.
func Fig6c(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "fig6c", Title: fmt.Sprintf("Graph building time, Arctic %d modules", s.ArcticStations),
		XLabel: "selectivity", YLabel: "seconds",
	}
	return arcticBuildFigure(f, s, clock, arcticTopologies(s))
}

// Fig7a reproduces Figure 7(a): ZoomOut time versus graph size for the
// dealer and aggregate modules (and the paper's ZoomIn observation).
// Each trial zooms an overlay of a fresh clone of the run's graph, cloned
// off the clock: a fresh clone has an empty zoom memo, so every ZoomOut
// runs the Definition 4.1 kernel. A zoom-in trial zooms out off the clock
// and times the ZoomIn that undoes it.
func Fig7a(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "fig7a", Title: "ZoomOut / ZoomIn time, Car dealerships",
		XLabel: "graph nodes", YLabel: "milliseconds",
	}
	zooms := []struct {
		name string
		mods []string
	}{
		{"dealer", []string{"M_dealer1", "M_dealer2", "M_dealer3", "M_dealer4"}},
		{"aggregate", []string{"M_agg"}},
	}
	for _, numExec := range s.DealerExecs {
		run, err := RunDealership(DealershipParams{
			NumCars: s.NumCars, NumExec: numExec, Seed: s.Seed, Gran: workflow.Fine,
		})
		if err != nil {
			return nil, err
		}
		base := run.Runner.Graph()
		nodes := base.NumNodes()
		for _, z := range zooms {
			out := clock(pointName(z.name+" zoom-out", nodes), func() time.Duration {
				ov := provgraph.NewOverlay(base.Clone())
				return timeOf(func() { ov.ZoomOut(z.mods...) })()
			})
			in := clock(pointName(z.name+" zoom-in", nodes), func() time.Duration {
				ov := provgraph.NewOverlay(base.Clone())
				rec := ov.ZoomOut(z.mods...)
				return timeOf(func() { ov.ZoomIn(rec) })()
			})
			f.Add(z.name+" zoom-out", float64(nodes), ms(out))
			f.Add(z.name+" zoom-in", float64(nodes), ms(in))
		}
	}
	return f, nil
}

// dealershipGraph runs the tracked dealership at the scale's largest
// execution count: the graph Figure 7(b) and the deletion figure query.
func dealershipGraph(s Scale) (*provgraph.Graph, error) {
	run, err := RunDealership(DealershipParams{
		NumCars: s.NumCars, NumExec: s.DealerExecs[len(s.DealerExecs)-1], Seed: s.Seed,
		Gran: workflow.Fine,
	})
	if err != nil {
		return nil, err
	}
	return run.Runner.Graph(), nil
}

// Fig7b reproduces Figure 7(b): subgraph query time versus result size on
// the Car-dealerships graph, for the 50 highest-fan-out nodes. Each
// point's size is taken by one query off the clock.
func Fig7b(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "fig7b", Title: "Subgraph query time, Car dealerships",
		XLabel: "subgraph nodes", YLabel: "milliseconds",
	}
	g, err := dealershipGraph(s)
	if err != nil {
		return nil, err
	}
	for _, id := range HighFanoutNodes(g, s.SubgraphNodes) {
		size := g.Subgraph(id).Size()
		d := clock(pointName("subgraph", size), timeOf(func() { g.Subgraph(id) }))
		f.Add("subgraph", float64(size), ms(d))
	}
	sort.SliceStable(f.Points, func(i, j int) bool { return f.Points[i].X < f.Points[j].X })
	return f, nil
}

// Fig7c reproduces Figure 7(c): average subgraph query time by selectivity
// and topology on the Arctic workflows. A trial queries every
// high-fan-out node once and reports the mean query time.
func Fig7c(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "fig7c", Title: fmt.Sprintf("Subgraph query time, Arctic %d modules", s.ArcticStations),
		XLabel: "selectivity", YLabel: "milliseconds (avg over high-fan-out nodes)",
	}
	for _, cfg := range arcticTopologies(s) {
		for _, sel := range Selectivities {
			run, err := arcticGraph(s, cfg, sel)
			if err != nil {
				return nil, err
			}
			g := run.Runner.Graph()
			targets := HighFanoutNodes(g, s.SubgraphNodes)
			d := clock(pointName(cfg.name, sel), func() time.Duration {
				return timeOf(func() {
					for _, id := range targets {
						g.Subgraph(id)
					}
				})() / time.Duration(len(targets))
			})
			f.AddLabeled(cfg.name, string(sel), ms(d))
		}
	}
	return f, nil
}

// FigDelete reproduces the Section 5.6 deletion measurement: deletion
// propagation from the 50 highest-fan-out nodes is sub-millisecond to
// low-millisecond per node. Each point's size is taken by one
// propagation off the clock.
func FigDelete(s Scale, clock Clock) (*Figure, error) {
	f := &Figure{
		ID: "delete", Title: "Deletion propagation time, Car dealerships",
		XLabel: "nodes removed by the propagation", YLabel: "milliseconds",
	}
	g, err := dealershipGraph(s)
	if err != nil {
		return nil, err
	}
	maxMs := 0.0
	for _, id := range HighFanoutNodes(g, s.SubgraphNodes) {
		size := g.PropagateDeletion(id).Size()
		d := clock(pointName("delete", size), timeOf(func() { g.PropagateDeletion(id) }))
		maxMs = max(maxMs, ms(d))
		f.Add("delete", float64(size), ms(d))
	}
	f.Note("max per-node propagation time: %.3f ms", maxMs)
	sort.SliceStable(f.Points, func(i, j int) bool { return f.Points[i].X < f.Points[j].X })
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

// RunFigure dispatches a figure by id; clock times its points.
// finegrained, nodes and graphmem measure sizes (graphmem times itself,
// best of three), so they run off the clock.
func RunFigure(id string, s Scale, clock Clock) (*Figure, error) {
	switch id {
	case "fig5a":
		return Fig5a(s, clock)
	case "fig5b":
		return Fig5b(s, clock)
	case "fig5c":
		return Fig5c(s, clock)
	case "fig6a":
		return Fig6a(s, clock)
	case "fig6b":
		return Fig6b(s, clock)
	case "fig6c":
		return Fig6c(s, clock)
	case "fig7a":
		return Fig7a(s, clock)
	case "fig7b":
		return Fig7b(s, clock)
	case "fig7c":
		return Fig7c(s, clock)
	case "delete":
		return FigDelete(s, clock)
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
