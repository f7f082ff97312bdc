// Command workflowgen is the WorkflowGen benchmark driver (Section 5.2):
// it regenerates the paper's figures as printed series.
//
// Usage:
//
//	workflowgen -fig fig5a              # one figure at default scale
//	workflowgen -fig all -scale paper   # full evaluation at paper scale
//	workflowgen -list                   # list experiment ids
//	workflowgen -emit http://host:8080 -name run1   # stream a dealership
//	                                    # run's provenance to a server
//
// Scales: "default" (seconds per figure, the scale EXPERIMENTS.md records)
// and "paper" (Section 5.3's parameters: 20,000 cars, 24 stations, the
// full 1961-2000 history, 5 trials; expect long runtimes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lipstick/internal/provgraph"
	"lipstick/internal/serve"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
	"lipstick/internal/workflowgen/scaleout"
)

func main() {
	fig := flag.String("fig", "all", "figure id to run, or 'all'")
	scaleName := flag.String("scale", "default", "experiment scale: default | paper")
	list := flag.Bool("list", false, "list experiment ids and exit")
	numCars := flag.Int("numcars", 0, "override the dealership inventory size")
	seed := flag.Int64("seed", 0, "override the random seed")
	trials := flag.Int("trials", 0, "override the number of trials per measurement")
	jsonPath := flag.String("json", "",
		"write the graphmem storage report (machine-readable JSON) to this file")
	benchSmoke := flag.String("benchsmoke", "",
		"run a graphmem smoke point and compare against this baseline report; exits non-zero on >20% regression")
	emit := flag.String("emit", "",
		"stream a dealership run's provenance events to this lipstick server instead of running figures")
	emitName := flag.String("name", "workflowgen", "live-graph name for -emit")
	emitExecs := flag.Int("execs", 4, "workflow executions for -emit")
	emitBatch := flag.Int("emitbatch", 0, "events per ingest batch for -emit (0 = default)")
	emitDelay := flag.Duration("emitdelay", 0, "pause between ingest batches for -emit (paces the stream)")
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(workflowgen.FigureIDs, " "))
		return
	}

	if *emit != "" {
		cars := *numCars
		if cars == 0 {
			cars = workflowgen.DefaultScale.NumCars
		}
		runSeed := *seed
		if runSeed == 0 {
			runSeed = workflowgen.DefaultScale.Seed
		}
		if err := emitRun(*emit, *emitName, cars, *emitExecs, runSeed, *emitBatch, *emitDelay); err != nil {
			fmt.Fprintf(os.Stderr, "workflowgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchSmoke != "" {
		if err := runBenchSmoke(*benchSmoke); err != nil {
			fmt.Fprintf(os.Stderr, "workflowgen: bench-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var scale workflowgen.Scale
	switch *scaleName {
	case "default":
		scale = workflowgen.DefaultScale
	case "paper":
		scale = workflowgen.PaperScale
	default:
		fmt.Fprintf(os.Stderr, "workflowgen: unknown scale %q (want default or paper)\n", *scaleName)
		os.Exit(2)
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
			figure, err = workflowgen.RunFigure(id, scale)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "workflowgen: %s: %v\n", id, err)
			os.Exit(1)
		}
		figure.Print(os.Stdout)
		fmt.Printf("   (experiment wall time: %s)\n\n", time.Since(start).Round(time.Millisecond))
	}
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
func runBenchSmoke(baselinePath string) error {
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
		return runScaleoutSmoke(baselinePath)
	}
	return runGraphMemSmoke(baselinePath)
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
func runScaleoutSmoke(baselinePath string) error {
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
	fmt.Printf("bench-smoke ok: ingest speedup %.2fx, read speedup %.2fx, geomean %.2fx (baseline %.2fx, gated vs %s)\n",
		report.Ingest.Speedup(), report.Reads.Speedup(), report.Geomean(), baseline.Geomean(), baselinePath)
	return nil
}

// runGraphMemSmoke re-measures the baseline's smallest scale point and
// fails on a >20% regression of the hardware-portable metrics
// (bytes/node, v3/v2 open ratio).
func runGraphMemSmoke(baselinePath string) error {
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
	fmt.Printf("bench-smoke ok: %d nodes, bytes/node %.1f (baseline %.1f), open ratio v3/v2 %.4f (baseline %.4f)\n",
		cur.Nodes, cur.BytesPerNode, small.BytesPerNode, cur.OpenRatio(), small.OpenRatio())
	return nil
}

// emitRun drives a dealership run while streaming its provenance events
// to a lipstick server's /v1/ingest/{name} endpoint — the run's graph is
// queryable remotely while the workflow is still executing. An optional
// inter-batch delay paces the stream (useful for demos and smoke tests
// that query mid-ingest).
func emitRun(server, name string, cars, execs int, seed int64, batch int, delay time.Duration) error {
	client := serve.NewIngestClient(server, name, batch)
	sink := client.Record
	if delay > 0 {
		if batch <= 0 {
			batch = serve.DefaultIngestBatch
		}
		count := 0
		sink = func(ev provgraph.Event) {
			client.Record(ev)
			if count++; count%batch == 0 {
				time.Sleep(delay)
			}
		}
	}
	start := time.Now()
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: cars, NumExec: execs, Seed: seed,
		Gran: workflow.Fine, StopOnPurchase: false,
		EventSink: sink,
	})
	if err != nil {
		return err
	}
	if err := client.Flush(); err != nil {
		return err
	}
	fmt.Printf("streamed %d events (%d executions, %d graph nodes) to %s/v1/ingest/%s in %s\n",
		client.Sent(), len(run.Executions), run.Runner.Graph().NumNodes(),
		server, name, time.Since(start).Round(time.Millisecond))
	return nil
}
