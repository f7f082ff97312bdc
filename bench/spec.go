package main

import (
	"encoding/json"
	"io"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Only end-to-end metrics have a bound; per-layer rows leave it out.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one row of BENCHMARK.json's workloads list.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures; setup, verification and the
// cold-open phase come on top (see README, "Time budget").
const runSeconds = 12

var workloadDefs = []workloadDef{
	{"track-dealership", "capture path only (pig, eval, workflow, provgraph builder): a capture gain shows here and nowhere else"},
	{"query-snapshot", "graph algorithms and sessions on an mmap'd snapshot, in-process: no capture, WAL, HTTP or query cache"},
	{"ingest-durable", "write path only (codec, WAL group commit, checkpoints, apply, live index): no readers, no HTTP"},
	{"serve-mixed", "HTTP reads beside HTTP writes on one live graph at fixed open-loop rates: publish, cache, lock hand-off"},
}

// endToEnd are the metrics every workload reports from its untraced run.
// Each is defined per workload in README.md ("What each metric means on
// each workload"); the workload-specific figures of the issue (overhead
// ratio, per-kind latencies, recover time) are reported beside them as
// detail metrics, outside the contract.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p90_us", "us", "lower", 0.25},
	{"stored_bytes_per_node", "B", "lower", 0.05},
}

// detailBound is the bound the compare tool applies to detail metrics.
const detailBound = 0.20

// detailBetter gives the direction of every detail metric a workload may
// report (the issue's workload-specific end-to-end names).
var detailBetter = map[string]string{
	"failed_share":            "lower",
	"peak_rss_mb":             "lower",
	"restart_first_query_ms":  "lower",
	"track_execs_s":           "higher",
	"track_overhead_ratio":    "lower",
	"snapshot_bytes_per_node": "lower",
	"open_first_query_ms":     "lower",
	"query_ops_s":             "higher",
	"find_p50_us":             "lower",
	"lineage_p50_us":          "lower",
	"subgraph_p50_us":         "lower",
	"zoom_p50_us":             "lower",
	"delete_p50_us":           "lower",
	"read_p90_us":             "lower",
	"query_p99_us":            "lower",
	"ingest_events_s":         "higher",
	"ingest_ack_p50_ms":       "lower",
	"recover_s":               "lower",
}

// perLayer are the metrics of the traced run. A workload that does not
// exercise a layer reports 0 for it: that is the prediction "does not
// move on this workload" made checkable.
var perLayer = []metricDef{
	{Name: "pig.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "pig.statements", Unit: "count", Better: "lower"},
	{Name: "workflow.plain_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "workflow.coarse_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "workflow.fine_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.plain_share", Unit: "ratio", Better: "higher"},
	{Name: "provgraph.capture_share", Unit: "ratio", Better: "lower"},
	{Name: "provgraph.events_per_exec", Unit: "count", Better: "lower"},
	{Name: "provgraph.nodes_per_exec", Unit: "count", Better: "lower"},
	{Name: "provgraph.edges_per_exec", Unit: "count", Better: "lower"},
	{Name: "provgraph.replay_events_s", Unit: "1/s", Better: "higher"},
	{Name: "provgraph.bfs_ns_per_visit", Unit: "ns", Better: "lower"},
	{Name: "provgraph.visits_per_lineage", Unit: "count", Better: "lower"},
	{Name: "provgraph.zoomout_us", Unit: "us", Better: "lower"},
	{Name: "provgraph.zoomin_us", Unit: "us", Better: "lower"},
	{Name: "provgraph.delete_propagate_us", Unit: "us", Better: "lower"},
	{Name: "provgraph.overlay_changes", Unit: "count", Better: "lower"},
	{Name: "provgraph.publish_us", Unit: "us", Better: "lower"},
	{Name: "store.encode_events_s", Unit: "1/s", Better: "higher"},
	{Name: "store.decode_events_s", Unit: "1/s", Better: "higher"},
	{Name: "store.wire_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "store.wal_append_events_s", Unit: "1/s", Better: "higher"},
	{Name: "store.wal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "store.batches_per_commit", Unit: "ratio", Better: "higher"},
	{Name: "store.fsyncs", Unit: "count", Better: "lower"},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoints", Unit: "count", Better: "lower"},
	{Name: "store.checkpoint_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "store.open_mapped_us", Unit: "us", Better: "lower"},
	{Name: "store.open_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_recover_ms", Unit: "ms", Better: "lower"},
	{Name: "store.recovered_tail_events", Unit: "count", Better: "lower"},
	{Name: "core.apply_events_s", Unit: "1/s", Better: "higher"},
	{Name: "core.find_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lineage_us", Unit: "us", Better: "lower"},
	{Name: "core.expr_us", Unit: "us", Better: "lower"},
	{Name: "core.subgraph_us", Unit: "us", Better: "lower"},
	{Name: "core.session_create_us", Unit: "us", Better: "lower"},
	{Name: "core.session_zoom_us", Unit: "us", Better: "lower"},
	{Name: "core.session_delete_us", Unit: "us", Better: "lower"},
	{Name: "core.readview_us", Unit: "us", Better: "lower"},
	{Name: "core.queue_high_water", Unit: "count", Better: "lower"},
	{Name: "core.overloads", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.views_per_s", Unit: "1/s", Better: "lower"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.bytes_out_per_query", Unit: "B", Better: "lower"},
	{Name: "serve.ingest_self_us", Unit: "us", Better: "lower"},
	{Name: "ingest.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.backlog_max", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// writeSpec renders BENCHMARK.json from the tables above, so the file
// and the program cannot drift (`-print-spec`; bench_test.go compares).
func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	})
}
