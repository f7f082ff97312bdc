// Command bench is the repository's benchmark: four workloads over the
// Lipstick system (capture, snapshot queries, durable ingest, mixed HTTP
// serving), each checked for correct outputs, each reporting the
// end-to-end metrics of BENCHMARK.json, and — in a separate traced run —
// the per-layer metrics. See README.md.
//
//	bash bench/run.sh --workload query-snapshot --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --runs 10 --out a.json      # every workload, ten seeds each
//	bash bench/run.sh --compare a.json b.json     # medians against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 3

// minWindows is the least number of timed windows of a run.
const minWindows = 3

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	workDir  string // scratch (WAL directories, snapshots), removed at exit
	outDir   string // result and trace files
}

// result accumulates one run's outcome.
type result struct {
	attempted int64
	failed    int64
	failures  []string           // first few failure messages
	e2e       map[string]float64 // contract end-to-end metrics
	detail    map[string]float64 // workload-specific end-to-end metrics
	layer     map[string]float64 // per-layer metrics (traced run)
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, detail: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one correctness check (or operation) and records a failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records a failed operation already counted in attempted.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// window is what one timed window of a workload reports.
type window struct {
	// ops is the work completed, in the workload's unit (executions,
	// queries, events, requests), and busy the time it took.
	ops  float64
	busy time.Duration
	// lat holds latency samples in microseconds per operation kind.
	lat map[string][]float64
	// unitCostUS is the cost of one unit of work in this window, the
	// figure traced and untraced windows are compared on.
	unitCostUS float64
}

// workload is one benchmark workload. setup generates inputs, warms up
// and boots whatever the windows need; teardown releases it. window runs
// one statistically identical timed window (tr is non-nil in the traced
// windows of a traced run). finish runs the phases after the windows:
// verification, cold opens, detail metrics and — when tr is non-nil —
// the layer-ladder probes.
type workload interface {
	setup(c *config) error
	teardown()
	window(i int, tr *tracer, r *result) (window, error)
	// primary names the latency kinds p50_us and p90_us are taken from.
	primary() (median, tail string)
	finish(c *config, plain []window, tr *tracer, r *result) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "track-dealership":
		return &trackWorkload{}, nil
	case "query-snapshot":
		return &queryWorkload{}, nil
	case "ingest-durable":
		return &ingestWorkload{}, nil
	case "serve-mixed":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload is the method common to all workloads: set up setupReps
// times, run windows for c.seconds, aggregate medians over windows, then
// the workload's own finish phase.
func runWorkload(c *config, w workload) (*result, *tracer, error) {
	r := newResult()
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(c); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	// Traced runs alternate untraced and traced windows, so the overhead
	// of tracing is measured within the run.
	var plain, traced []window
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < c.seconds || len(plain) < minWindows; i++ {
		var wtr *tracer
		if c.trace && i%2 == 1 {
			wtr = tr
		}
		ws, err := w.window(i, wtr, r)
		if err != nil {
			return nil, nil, fmt.Errorf("window %d: %w", i, err)
		}
		if wtr != nil {
			traced = append(traced, ws)
		} else {
			plain = append(plain, ws)
		}
	}

	var rates []float64
	for _, ws := range plain {
		rates = append(rates, ws.ops/ws.busy.Seconds())
	}
	r.e2e["ops_s"] = median(rates)
	medianKind, tailKind := w.primary()
	r.e2e["p50_us"] = kindPct(plain, medianKind, 50)
	r.e2e["p90_us"] = kindPct(plain, tailKind, 90)
	if len(traced) > 0 {
		r.layer["trace.overhead_share"] = median(unitCosts(traced))/median(unitCosts(plain)) - 1
	}

	// Collect the windows' garbage first, so that the cold opens of the
	// finish phase do not run beside a collection cycle.
	runtime.GC()
	if err := w.finish(c, plain, tr, r); err != nil {
		return nil, nil, fmt.Errorf("finish: %w", err)
	}
	r.e2e["setup_s"] = median(setups)
	r.detail["peak_rss_mb"] = peakRSSMB()
	r.detail["failed_share"] = float64(r.failed) / float64(max(r.attempted, 1))
	r.layer["trace.spans"] = float64(tr.numSpans())
	return r, tr, nil
}

func unitCosts(ws []window) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.unitCostUS
	}
	return out
}

// kindPct is the median over windows of one latency kind's percentile
// within the window.
func kindPct(ws []window, kind string, pct float64) float64 {
	var v []float64
	for _, w := range ws {
		if len(w.lat[kind]) > 0 {
			v = append(v, percentile(sorted(w.lat[kind]), pct))
		}
	}
	return median(v)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run as stored in a result file.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]float64     `json:"detail,omitempty"`
}

// record projects a result onto the contract's metric names: every
// end-to-end metric untraced, every per-layer metric traced.
func record(c *config, r *result) (*runRecord, error) {
	rec := &runRecord{
		Workload: c.workload, Seed: c.seed, Trace: c.trace,
		Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Failures: r.failures, Metrics: map[string]metricValue{}, Detail: r.detail,
	}
	defs, values := endToEnd, r.e2e
	if c.trace {
		defs, values = perLayer, r.layer
	}
	for _, m := range defs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		if !c.trace && v <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured (value %v)", m.Name, v)
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := rec.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is reported but not declared in spec.go", name)
		}
	}
	return rec, nil
}

// runOne executes one run of one workload and prints its result line.
func runOne(c *config) (*runRecord, error) {
	w, err := newWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.workDir)
	r, tr, err := runWorkload(c, w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.workload, err)
	}
	rec, err := record(c, r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.workload, err)
	}
	if tr != nil {
		if err := tr.write(c.outDir, c.workload); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// printRecord writes the human-readable report, then the one-line JSON
// object the driver reads as the last line of standard output.
func printRecord(rec *runRecord) error {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d trace %v\n", rec.Workload, rec.Seed, rec.Trace)
	for _, m := range defs {
		fmt.Printf("  %-32s %16.4f %s\n", m.Name, rec.Metrics[m.Name].Value, m.Unit)
	}
	for _, name := range sortedKeys(rec.Detail) {
		fmt.Printf("  detail %-25s %16.4f\n", name, rec.Detail[name])
	}
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// options are the command line's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     string
	runs      int
	out       string
	record    string
	compare   bool
	printSpec bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or \"all\" for every workload in a subprocess each")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed windows of a run last")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "input scale: full or smoke")
	flag.IntVar(&o.runs, "runs", 1, "with -workload all: untraced runs per workload, on seeds seed..seed+runs-1")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out", "result.json"), "with -workload all: the result file")
	flag.StringVar(&o.record, "record", "", "write the run's record (detail metrics included) to this file instead of printing it")
	flag.BoolVar(&o.compare, "compare", false, "compare the two result files given as arguments")
	flag.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json as the program defines it")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.printSpec:
		return writeSpec(os.Stdout)
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	sc, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return fmt.Errorf("run from the checkout root (bash bench/run.sh): %w", err)
	}
	if o.workload == "all" {
		return runAll(o)
	}
	c := &config{
		workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace == 1, scale: sc,
		workDir: filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid())),
		outDir:  filepath.Join("bench", "out"),
	}
	rec, err := runOne(c)
	if err != nil {
		return err
	}
	if o.record == "" {
		return printRecord(rec)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.record), 0o755); err != nil {
		return err
	}
	return os.WriteFile(o.record, data, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
