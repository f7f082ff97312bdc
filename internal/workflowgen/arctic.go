package workflowgen

import (
	"fmt"
	"strings"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
)

// Topology enumerates the Arctic workflow shapes of Figure 4.
type Topology int

const (
	// Serial chains the stations: in -> sta1 -> sta2 -> ... -> out.
	Serial Topology = iota
	// Parallel fans all stations out from the input and into the output.
	Parallel
	// Dense arranges stations in layers of FanOut with complete bipartite
	// edges between consecutive layers (Figure 4(c)).
	Dense
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Serial:
		return "serial"
	case Parallel:
		return "parallel"
	default:
		return "dense"
	}
}

// Selectivity is the query selectivity input of the Arctic workflows: it
// controls which historical observations the minimum is taken over
// (all = 1, season = 1/4, month = 1/12, year = at most 12 tuples).
type Selectivity string

// The four selectivity levels of Section 5.2.
const (
	SelAll    Selectivity = "all"
	SelSeason Selectivity = "season"
	SelMonth  Selectivity = "month"
	SelYear   Selectivity = "year"
)

// Selectivities lists the levels in the paper's order.
var Selectivities = []Selectivity{SelAll, SelSeason, SelMonth, SelYear}

func querySchema() *nested.Schema {
	return nested.NewSchema(
		nested.Field{Name: "Year", Type: intT()},
		nested.Field{Name: "Month", Type: intT()},
		nested.Field{Name: "Sel", Type: strT()},
	)
}

func tempSchema() *nested.Schema {
	return nested.NewSchema(nested.Field{Name: "T", Type: fltT()})
}

// measureUDF returns the station's Measure black box: a deterministic
// synthetic sensor returning the station's observation for (Year, Month).
func measureUDF(seed int64, station int) *pig.UDF {
	return &pig.UDF{
		Name:      "Measure",
		OutSchema: ObsSchema(),
		Fn: func(args []nested.Value) (*nested.Bag, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("Measure expects (Year, Month)")
			}
			year := int(args[0].AsInt())
			month := int(args[1].AsInt())
			return nested.NewBag(StationObservation(seed, station, year, month).Tuple()), nil
		},
	}
}

// selCondition renders the FILTER condition for the given query
// parameters; the paper's implementation passes these as per-execution Pig
// parameters ("parameters passed through the file system", Section 5.4),
// which is why they appear as literals in the compiled program.
func selCondition(sel Selectivity, year, month int) string {
	switch sel {
	case SelAll:
		return "TRUE"
	case SelSeason:
		// Integer arithmetic buckets months into DJF/MAM/JJA/SON.
		return fmt.Sprintf("(Month %% 12) / 3 == %d", (month%12)/3)
	case SelMonth:
		return fmt.Sprintf("Month == %d", month)
	case SelYear:
		return fmt.Sprintf("Year == %d", year)
	default:
		return "TRUE"
	}
}

// stationProgram renders station i's program for one execution's query
// parameters. preds lists the station ids feeding minTemp values in.
func stationProgram(id int, preds []int, sel Selectivity, year, month int) string {
	var sb strings.Builder
	// Take a measurement and record it in the state (internal sensor).
	sb.WriteString("NewObs = FOREACH Query GENERATE FLATTEN(Measure(Year, Month));\n")
	sb.WriteString("Obs = UNION Obs, NewObs;\n")
	// Lowest air temperature observed to date at the given selectivity.
	fmt.Fprintf(&sb, "Relevant = FILTER Obs BY %s;\n", selCondition(sel, year, month))
	sb.WriteString("G = GROUP Relevant BY 1;\n")
	sb.WriteString("LocalMin = FOREACH G GENERATE MIN(Relevant.AirTemp) AS T;\n")
	// Fold in the minTemp values received from predecessor stations.
	if len(preds) == 0 {
		sb.WriteString("AllT = LocalMin;\n")
	} else {
		parts := []string{"LocalMin"}
		for _, p := range preds {
			parts = append(parts, fmt.Sprintf("Temp%d", p))
		}
		fmt.Fprintf(&sb, "AllT = UNION %s;\n", strings.Join(parts, ", "))
	}
	sb.WriteString("GT = GROUP AllT BY 1;\n")
	fmt.Fprintf(&sb, "Temp%d = FOREACH GT GENERATE MIN(AllT.T) AS T;\n", id)
	return sb.String()
}

// outProgram renders the output module's program over the final layer.
func outProgram(preds []int) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = fmt.Sprintf("Temp%d", p)
	}
	var sb strings.Builder
	if len(preds) == 1 {
		fmt.Fprintf(&sb, "AllT = %s;\n", parts[0])
	} else {
		fmt.Fprintf(&sb, "AllT = UNION %s;\n", strings.Join(parts, ", "))
	}
	sb.WriteString("GT = GROUP AllT BY 1;\n")
	sb.WriteString("MinTemp = FOREACH GT GENERATE MIN(AllT.T) AS T;\n")
	return sb.String()
}

// ArcticParams configures one Arctic-stations run.
type ArcticParams struct {
	Stations    int // 2..24 in the paper
	Topology    Topology
	FanOut      int // Dense only
	Selectivity Selectivity
	NumExec     int
	Seed        int64
	Gran        workflow.Granularity
	// HistoryYears limits each station's historical state (0 = the full
	// 1961-2000 record of 480 observations), letting benchmarks scale.
	HistoryYears int
	// EventSink, when non-nil, streams every provenance-graph mutation of
	// the run as a typed event (workflow.WithEventSink).
	EventSink func(provgraph.Event)
}

// arcticLayout computes each station's predecessor list and the final
// layer, per the topology.
func arcticLayout(p ArcticParams) (preds [][]int, last []int, err error) {
	n := p.Stations
	if n < 1 {
		return nil, nil, fmt.Errorf("workflowgen: need at least 1 station")
	}
	preds = make([][]int, n+1) // 1-based
	switch p.Topology {
	case Serial:
		for i := 2; i <= n; i++ {
			preds[i] = []int{i - 1}
		}
		last = []int{n}
	case Parallel:
		for i := 1; i <= n; i++ {
			last = append(last, i)
		}
	case Dense:
		f := p.FanOut
		if f < 1 {
			return nil, nil, fmt.Errorf("workflowgen: dense topology needs FanOut >= 1")
		}
		var layers [][]int
		for start := 1; start <= n; start += f {
			end := start + f - 1
			if end > n {
				end = n
			}
			layer := make([]int, 0, end-start+1)
			for i := start; i <= end; i++ {
				layer = append(layer, i)
			}
			layers = append(layers, layer)
		}
		for li := 1; li < len(layers); li++ {
			for _, i := range layers[li] {
				preds[i] = append([]int(nil), layers[li-1]...)
			}
		}
		last = layers[len(layers)-1]
	default:
		return nil, nil, fmt.Errorf("workflowgen: unknown topology %d", p.Topology)
	}
	return preds, last, nil
}

// ArcticRun drives one Arctic-stations workflow.
type ArcticRun struct {
	Workflow   *workflow.Workflow
	Runner     *workflow.Runner
	Executions []*workflow.Execution
	// stationModules allows per-execution program regeneration.
	stationModules map[int]*workflow.Module
	preds          [][]int
	params         ArcticParams
}

// NewArcticRun builds the workflow, seeds station state with the
// historical record, and prepares the runner.
func NewArcticRun(p ArcticParams) (*ArcticRun, error) {
	preds, last, err := arcticLayout(p)
	if err != nil {
		return nil, err
	}
	if p.NumExec <= 0 {
		p.NumExec = 1
	}

	w := workflow.New()
	inModule := &workflow.Module{Name: "M_in", Out: nested.RelationSchemas{"Query": querySchema()}}
	if err := w.AddNode("in", inModule); err != nil {
		return nil, err
	}
	run := &ArcticRun{Workflow: w, stationModules: map[int]*workflow.Module{}, preds: preds, params: p}

	for i := 1; i <= p.Stations; i++ {
		reg := pig.NewRegistry()
		reg.MustRegister(measureUDF(p.Seed, i))
		in := nested.RelationSchemas{"Query": querySchema()}
		for _, pd := range preds[i] {
			in[fmt.Sprintf("Temp%d", pd)] = tempSchema()
		}
		m := &workflow.Module{
			Name:     fmt.Sprintf("M_sta%d", i),
			In:       in,
			State:    nested.RelationSchemas{"Obs": ObsSchema()},
			Out:      nested.RelationSchemas{fmt.Sprintf("Temp%d", i): tempSchema()},
			Program:  stationProgram(i, preds[i], p.Selectivity, HistoryEndYear+1, 1),
			Registry: reg,
		}
		run.stationModules[i] = m
		if err := w.AddNode(fmt.Sprintf("sta%d", i), m); err != nil {
			return nil, err
		}
	}
	outIn := nested.RelationSchemas{}
	for _, i := range last {
		outIn[fmt.Sprintf("Temp%d", i)] = tempSchema()
	}
	outModule := &workflow.Module{
		Name:    "M_out",
		In:      outIn,
		Out:     nested.RelationSchemas{"MinTemp": tempSchema()},
		Program: outProgram(last),
	}
	if err := w.AddNode("out", outModule); err != nil {
		return nil, err
	}

	for i := 1; i <= p.Stations; i++ {
		if err := w.AddEdge("in", fmt.Sprintf("sta%d", i), "Query"); err != nil {
			return nil, err
		}
		for _, pd := range preds[i] {
			if err := w.AddEdge(fmt.Sprintf("sta%d", pd), fmt.Sprintf("sta%d", i), fmt.Sprintf("Temp%d", pd)); err != nil {
				return nil, err
			}
		}
	}
	for _, i := range last {
		if err := w.AddEdge(fmt.Sprintf("sta%d", i), "out", fmt.Sprintf("Temp%d", i)); err != nil {
			return nil, err
		}
	}
	w.In = []string{"in"}
	w.Out = []string{"out"}

	var opts []workflow.Option
	if p.EventSink != nil {
		opts = append(opts, workflow.WithEventSink(p.EventSink))
	}
	runner, err := workflow.NewRunner(w, p.Gran, opts...)
	if err != nil {
		return nil, err
	}
	run.Runner = runner
	for i := 1; i <= p.Stations; i++ {
		bag := HistoricalBag(p.Seed, i, p.HistoryYears)
		if err := runner.SetState(fmt.Sprintf("M_sta%d", i), "Obs", bag, fmt.Sprintf("sta%d.obs", i)); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// ExecuteAll runs the configured number of executions, advancing the
// current month from January of the year after the historical record. The
// query parameters are recompiled into the station programs before each
// execution (the paper's per-execution Pig parameters).
func (r *ArcticRun) ExecuteAll() error {
	p := r.params
	for e := 0; e < p.NumExec; e++ {
		year := HistoryEndYear + 1 + e/12
		month := 1 + e%12
		for i := 1; i <= p.Stations; i++ {
			m := r.stationModules[i]
			m.Program = stationProgram(i, r.preds[i], p.Selectivity, year, month)
			if err := m.Compile(); err != nil {
				return err
			}
		}
		inputs := workflow.Inputs{"in": {"Query": nested.NewBag(nested.NewTuple(
			nested.Int(int64(year)), nested.Int(int64(month)), nested.Str(string(p.Selectivity)),
		))}}
		exec, err := r.Runner.Execute(inputs)
		if err != nil {
			return err
		}
		r.Executions = append(r.Executions, exec)
	}
	return nil
}

// MinTemp returns the workflow's final output of execution e.
func (r *ArcticRun) MinTemp(e int) (float64, bool) {
	if e < 0 || e >= len(r.Executions) {
		return 0, false
	}
	rel, ok := r.Executions[e].Output("out", "MinTemp")
	if !ok || rel.Len() == 0 {
		return 0, false
	}
	return rel.Tuples[0].Tuple.Fields[0].AsFloat(), true
}
