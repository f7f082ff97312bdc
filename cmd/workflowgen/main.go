// Command workflowgen is the WorkflowGen benchmark driver (Section 5.2):
// it regenerates the paper's figures as printed series, and with
// -benchsmoke it gates a checked-in storage or scale-out report. To
// stream a dealership run to a server, use `lipstick track -remote`.
//
// Usage:
//
//	workflowgen -fig fig5a              # one figure at default scale
//	workflowgen -fig all -scale paper   # full evaluation at paper scale
//	workflowgen -list                   # list experiment ids
//	workflowgen -benchsmoke BENCH_graphmem.json   # regression gate
//
// Scales: "default" (seconds per figure, the scale EXPERIMENTS.md records)
// and "paper" (Section 5.3's parameters: 20,000 cars, 24 stations, the
// full 1961-2000 history, 5 trials; expect long runtimes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lipstick/internal/workflowgen"
	"lipstick/internal/workflowgen/scaleout"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "workflowgen: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and runs the requested experiments, printing to stdout.
// A bad flag or value answers an error that starts with the usage line.
func run(args []string, stdout io.Writer) error {
	const usage = "usage: workflowgen [-fig id[,id...]|all] [-scale default|paper] [-numcars n] [-seed n] [-trials n] [-json file] | -list | -benchsmoke file"
	fs := flag.NewFlagSet("workflowgen", flag.ContinueOnError)
	var msg strings.Builder
	fs.SetOutput(&msg)
	fig := fs.String("fig", "all", "figure id to run, or 'all'")
	scaleName := fs.String("scale", "default", "experiment scale: default | paper")
	list := fs.Bool("list", false, "list experiment ids and exit")
	numCars := fs.Int("numcars", 0, "override the dealership inventory size")
	seed := fs.Int64("seed", 0, "override the random seed")
	trials := fs.Int("trials", 0, "override the number of trials per measurement")
	jsonPath := fs.String("json", "",
		"write the graphmem storage report (machine-readable JSON) to this file")
	benchSmoke := fs.String("benchsmoke", "",
		"run a graphmem smoke point and compare against this baseline report; exits non-zero on >20% regression")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%s\n%s", usage, strings.TrimSuffix(msg.String(), "\n"))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("%s\nunexpected arguments %q", usage, fs.Args())
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:", strings.Join(workflowgen.FigureIDs, " "))
		return nil
	}
	if *benchSmoke != "" {
		if err := runBenchSmoke(stdout, *benchSmoke); err != nil {
			return fmt.Errorf("bench-smoke: %w", err)
		}
		return nil
	}

	var scale workflowgen.Scale
	switch *scaleName {
	case "default":
		scale = workflowgen.DefaultScale
	case "paper":
		scale = workflowgen.PaperScale
	default:
		return fmt.Errorf("%s\nunknown scale %q (want default or paper)", usage, *scaleName)
	}
	if *numCars > 0 {
		scale.NumCars = *numCars
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	if *trials > 0 {
		scale.Trials = *trials
	}

	ids := workflowgen.FigureIDs
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		var figure *workflowgen.Figure
		var err error
		if id == "scaleout" {
			figure, err = runScaleout(*jsonPath)
		} else if id == "graphmem" && *jsonPath != "" {
			var report *workflowgen.GraphMemReport
			figure, report, err = workflowgen.RunGraphMem(scale)
			if err == nil {
				err = writeGraphMemReport(*jsonPath, report)
			}
		} else {
			figure, err = workflowgen.RunFigure(id, scale, workflowgen.MeanOf(scale.Trials))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		figure.Print(stdout)
		fmt.Fprintf(stdout, "   (experiment wall time: %s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeGraphMemReport persists the machine-readable graphmem metrics
// (the file CI's bench-smoke gate diffs against).
func writeGraphMemReport(path string, report *workflowgen.GraphMemReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBenchSmoke dispatches on the baseline report's "kind" field: absent
// or "graphmem" re-measures the storage smoke point; "scaleout"
// re-measures the shard/replica topology speedups. Both gates compare
// only hardware-portable metrics, with 20% tolerance.
func runBenchSmoke(stdout io.Writer, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var sniff struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &sniff); err != nil {
		return fmt.Errorf("%s: %v", baselinePath, err)
	}
	if sniff.Kind == scaleout.ReportKind {
		return runScaleoutSmoke(stdout, baselinePath)
	}
	return runGraphMemSmoke(stdout, baselinePath)
}

// scaleoutPerScenario bounds each of the four topology scenarios (1/2
// shard ingest, 0/1 follower reads) BENCH_scaleout.json records.
const scaleoutPerScenario = 1500 * time.Millisecond

// runScaleout measures the horizontal-scaling series (sharded ingest,
// replicated reads) and renders it as a figure, optionally persisting
// the machine-readable report.
func runScaleout(jsonPath string) (*workflowgen.Figure, error) {
	report, err := scaleout.Series(scaleoutPerScenario)
	if err != nil {
		return nil, err
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return nil, err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	fig := &workflowgen.Figure{
		ID: "scaleout", Title: "Scale-out: sharded ingest and replicated reads vs one node",
		XLabel: "nodes", YLabel: "events/s, reads/s",
	}
	fig.Add("proxied ingest ev/s", 1, report.Ingest.OneShardEventsPerSec)
	fig.Add("proxied ingest ev/s", 2, report.Ingest.TwoShardEventsPerSec)
	fig.Add("reads/s", 1, report.Reads.PrimaryOnlyReadsPerSec)
	fig.Add("reads/s", 2, report.Reads.WithFollowerReadsPerSec)
	fig.Note("ingest speedup %.2fx (2 shards), read speedup %.2fx (1 follower), geomean %.2fx",
		report.Ingest.Speedup(), report.Reads.Speedup(), report.Geomean())
	return fig, nil
}

// runScaleoutSmoke re-measures the topology speedups and fails on a >20%
// regression of their geomean.
func runScaleoutSmoke(stdout io.Writer, baselinePath string) error {
	baseline, err := scaleout.ReadReport(baselinePath)
	if err != nil {
		return err
	}
	report, err := scaleout.Series(scaleoutPerScenario)
	if err != nil {
		return err
	}
	if err := scaleout.Compare(baseline, report, 0.20); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bench-smoke ok: ingest speedup %.2fx, read speedup %.2fx, geomean %.2fx (baseline %.2fx, gated vs %s)\n",
		report.Ingest.Speedup(), report.Reads.Speedup(), report.Geomean(), baseline.Geomean(), baselinePath)
	return nil
}

// runGraphMemSmoke re-measures the baseline's smallest scale point and
// fails on a >20% regression of its hardware-portable metric, bytes/node.
func runGraphMemSmoke(stdout io.Writer, baselinePath string) error {
	baseline, err := workflowgen.ReadGraphMemReport(baselinePath)
	if err != nil {
		return err
	}
	if len(baseline.Points) == 0 {
		return fmt.Errorf("baseline %s has no points", baselinePath)
	}
	small := baseline.Points[0]
	for _, p := range baseline.Points[1:] {
		if p.Nodes < small.Nodes {
			small = p
		}
	}
	report, err := workflowgen.GraphMemSeries([]int{small.Nodes}, workflowgen.DefaultScale.Seed)
	if err != nil {
		return err
	}
	if err := workflowgen.CompareGraphMem(baseline, report, 0.20); err != nil {
		return err
	}
	cur := report.Points[0]
	fmt.Fprintf(stdout, "bench-smoke ok: %d nodes, bytes/node %.1f (baseline %.1f), mapped open %.1f µs (baseline %.1f µs, not gated)\n",
		cur.Nodes, cur.BytesPerNode, small.BytesPerNode, float64(cur.OpenV3Ns)/1e3, float64(small.OpenV3Ns)/1e3)
	return nil
}
