package main

import (
	"bufio"
	"os"
	"path/filepath"
	"time"

	"lipstick/internal/core"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// pinnedSeed1 are track-dealership's exact counts at seed 1 and full
// scale: a change that moves them changed what is captured, not how fast.
var pinnedSeed1 = graphCounts{nodes: 56175, edges: 122551, events: 196041}

type graphCounts struct{ nodes, edges, events int }

// trackWorkload is the paper's Car-dealerships run captured sequentially:
// every window executes the run once untracked and once with fine-grained
// tracking. Nothing is stored, queried or served while it is timed.
type trackWorkload struct {
	c         *config
	compileMS float64
	// last is the most recent window's fine-grained run; counts must be
	// identical across windows.
	last   *dealership
	counts graphCounts
	// coarse holds per-execution times of the traced run's coarse windows.
	coarse []float64
}

func (w *trackWorkload) primary() (string, string) { return "fine_exec", "fine_exec" }

func (w *trackWorkload) setup(c *config) error {
	w.c = c
	t0 := time.Now()
	wf, err := workflowgen.NewDealershipWorkflow()
	if err != nil {
		return err
	}
	if err := wf.Validate(); err != nil { // compiles every module's Pig program
		return err
	}
	w.compileMS = millis(time.Since(t0))
	// Warm-up: one untracked and one tracked run grow the heap to its
	// working size before anything is timed.
	for _, gran := range []workflow.Granularity{workflow.Plain, workflow.Fine} {
		d, err := newDealership(c.scale, c.seed, gran, nil)
		if err != nil {
			return err
		}
		if err := d.executeAll(c.scale); err != nil {
			return err
		}
	}
	return nil
}

func (w *trackWorkload) teardown() { w.last = nil }

// timedRun executes one dealership run, timing each Runner.Execute.
func (w *trackWorkload) timedRun(gran workflow.Granularity, tr *tracer, sink func(provgraph.Event)) (*dealership, []float64, error) {
	d, err := newDealership(w.c.scale, w.c.seed, gran, sink)
	if err != nil {
		return nil, nil, err
	}
	var us []float64
	for e := 0; e < w.c.scale.execs; e++ {
		var execErr error
		dur := tr.root("workflow.Runner.Execute/"+gran.String(), func() { execErr = d.execute() })
		if execErr != nil {
			return nil, nil, execErr
		}
		us = append(us, micros(dur))
	}
	return d, us, nil
}

func (w *trackWorkload) window(i int, tr *tracer, r *result) (window, error) {
	order := []workflow.Granularity{workflow.Plain, workflow.Fine}
	if (i/2)%2 == 1 { // alternate per window of the same kind (traced runs interleave kinds)
		order[0], order[1] = order[1], order[0]
	}
	ws := window{lat: map[string][]float64{}}
	events := 0
	for _, gran := range order {
		var sink func(provgraph.Event)
		if gran == workflow.Fine {
			sink = func(provgraph.Event) { events++ }
		}
		d, us, err := w.timedRun(gran, tr, sink)
		if err != nil {
			return ws, err
		}
		ws.lat[gran.String()+"_exec"] = us
		if gran == workflow.Fine {
			w.last = d
			ws.ops = float64(len(us))
			for _, u := range us {
				ws.busy += time.Duration(u * 1e3)
			}
		}
		r.attempted += int64(len(us))
	}
	if tr != nil {
		_, us, err := w.timedRun(workflow.Coarse, tr, nil)
		if err != nil {
			return ws, err
		}
		w.coarse = append(w.coarse, us...)
	}
	ws.unitCostUS = mean(ws.lat["fine_exec"])
	g := w.last.graph()
	got := graphCounts{nodes: g.NumNodes(), edges: g.NumEdges(), events: events}
	if w.counts == (graphCounts{}) {
		w.counts = got
	}
	r.check(got == w.counts, "window %d captured %+v, earlier windows %+v", i, got, w.counts)
	return ws, nil
}

func (w *trackWorkload) finish(c *config, plain []window, tr *tracer, r *result) error {
	if c.scale.name == "full" && c.seed == 1 {
		r.check(w.counts == pinnedSeed1, "seed 1 captured %+v, pinned %+v", w.counts, pinnedSeed1)
	}
	var ratios, fine, plainUS []float64
	for _, ws := range plain {
		ratios = append(ratios, mean(ws.lat["fine_exec"])/mean(ws.lat["plain_exec"]))
		fine = append(fine, mean(ws.lat["fine_exec"]))
		plainUS = append(plainUS, mean(ws.lat["plain_exec"]))
	}
	r.detail["track_execs_s"] = r.e2e["ops_s"]
	r.detail["track_overhead_ratio"] = median(ratios)

	// The stored form: the LPSK v3 snapshot and its cold open.
	path := filepath.Join(c.workDir, "track.lpsk")
	snap := w.last.snapshot()
	var writeMS float64
	{
		var werr error
		d := tr.root("store.Write", func() { werr = writeSnapshot(path, snap) })
		if werr != nil {
			return werr
		}
		writeMS = millis(d)
	}
	lastOut, ok := lastOutputTuple(w.last)
	r.check(ok, "the run recorded no output tuple")
	bytes, err := storedSnapshot(path, w.counts.nodes, lastOut, r)
	if err != nil {
		return err
	}
	r.detail["snapshot_bytes_per_node"] = r.e2e["stored_bytes_per_node"]

	if tr == nil {
		return nil
	}
	// Layer probes of the traced run.
	r.layer["pig.compile_ms"] = w.compileMS
	r.layer["pig.statements"] = float64(countStatements())
	r.layer["workflow.plain_exec_ms"] = median(plainUS) / 1e3
	r.layer["workflow.fine_exec_ms"] = median(fine) / 1e3
	r.layer["workflow.coarse_exec_ms"] = mean(w.coarse) / 1e3
	r.layer["eval.plain_share"] = median(plainUS) / median(fine)
	r.layer["provgraph.capture_share"] = (median(fine) - median(plainUS)) / median(fine)
	execs := float64(c.scale.execs)
	r.layer["provgraph.events_per_exec"] = float64(w.counts.events) / execs
	r.layer["provgraph.nodes_per_exec"] = float64(w.counts.nodes) / execs
	r.layer["provgraph.edges_per_exec"] = float64(w.counts.edges) / execs

	_, events, err := capture(c.scale, c.seed)
	if err != nil {
		return err
	}
	r.layer["provgraph.replay_events_s"] = replayRate(tr, events)
	r.layer["store.snapshot_write_ms"] = writeMS
	r.layer["store.snapshot_bytes"] = float64(bytes)
	var mapped, decoded []float64
	for i := 0; i < 10; i++ {
		var lerr error
		d := tr.root("store.LoadMapped", func() { _, lerr = store.LoadMapped(path) })
		if lerr != nil {
			return lerr
		}
		mapped = append(mapped, micros(d))
		d = tr.root("store.Load", func() { _, lerr = store.Load(path) })
		if lerr != nil {
			return lerr
		}
		decoded = append(decoded, millis(d))
	}
	r.layer["store.open_mapped_us"] = median(mapped)
	r.layer["store.open_decode_ms"] = median(decoded)
	return nil
}

// coldOpens is how often a stored snapshot is cold-opened.
const coldOpens = 20

// storedSnapshot reports a snapshot file's size per node
// (stored_bytes_per_node) and its cold open: coldOpens times, each
// through a fresh snapshot cache (the page cache stays warm: README), to
// the first Lineage of node. It returns the file's size.
func storedSnapshot(path string, nodes int, node provgraph.NodeID, r *result) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	r.e2e["stored_bytes_per_node"] = float64(st.Size()) / float64(nodes)
	var opens []float64
	for i := 0; i < coldOpens; i++ {
		t0 := time.Now()
		qp, err := core.NewSnapshotManager(1).Open(path)
		if err != nil {
			return 0, err
		}
		l := qp.Lineage(node)
		opens = append(opens, millis(time.Since(t0)))
		r.check(qp.Graph().NumNodes() == nodes && l.AncestorCount > 0,
			"cold open %d: %d nodes (want %d), %d ancestors", i, qp.Graph().NumNodes(), nodes, l.AncestorCount)
	}
	r.detail["open_first_query_ms"] = median(opens)
	return st.Size(), nil
}

// writeSnapshot streams a snapshot to path in the store's primary format.
func writeSnapshot(path string, snap *store.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := store.Write(bw, snap); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lastOutputTuple is the provenance node of the last output tuple the
// run recorded (the newest sale).
func lastOutputTuple(d *dealership) (provgraph.NodeID, bool) {
	for i := len(d.execs) - 1; i >= 0; i-- {
		if sold, ok := d.execs[i].Output("car", "Sold"); ok && sold.Len() > 0 {
			return sold.Tuples[sold.Len()-1].Prov, true
		}
	}
	return 0, false
}

// countStatements parses every distinct module program of the workflow.
func countStatements() int {
	wf, err := workflowgen.NewDealershipWorkflow()
	if err != nil {
		return 0
	}
	seen := map[*workflow.Module]bool{}
	total := 0
	for _, name := range wf.Nodes() {
		m := wf.Node(name).Module
		if seen[m] || m.Program == "" {
			continue
		}
		seen[m] = true
		if prog, err := pig.Parse(m.Program); err == nil {
			total += len(prog.Stmts)
		}
	}
	return total
}

// replayRate is pure graph construction: provgraph.Replay of a capture.
func replayRate(tr *tracer, events []provgraph.Event) float64 {
	var rates []float64
	for i := 0; i < 5; i++ {
		d := tr.root("provgraph.Replay", func() { _, _ = provgraph.Replay(events) })
		rates = append(rates, float64(len(events))/d.Seconds())
	}
	return median(rates)
}
