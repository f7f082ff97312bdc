package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call (the program under test is not instrumented).
// Spans of one operation share Op; Parent is the span of the rung above
// (-1 for the outermost).
type span struct {
	Op      uint64 `json:"op"`
	Span    int32  `json:"span"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 200_000

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer is a valid receiver that only times the call, so call sites
// read the same traced and untraced.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span           // guarded by mu
	dropped int              // guarded by mu
	counts  map[string]int64 // guarded by mu
	nextOp  uint64           // guarded by mu
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// op allocates an operation id.
func (t *tracer) op() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// count adds n to a named counter recorded at a layer boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// call times fn and, when tracing, records it as a span of op under
// parent. It returns the span id (-1 untraced) and the duration.
func (t *tracer) call(op uint64, parent int32, name string, fn func()) (int32, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	if t == nil {
		return -1, end.Sub(start)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1, end.Sub(start)
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		Op: op, Span: id, Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id, end.Sub(start)
}

// traceEvery is the share of a traced window's operations that get a
// span: one in traceEvery.
const traceEvery = 8

// root times fn as an operation of its own: a span without a parent.
func (t *tracer) root(name string, fn func()) time.Duration {
	_, d := t.call(t.op(), -1, name, fn)
	return d
}

// sampled times the k-th operation of a window and, in a traced window,
// records every traceEvery-th as a root span.
func (t *tracer) sampled(k int, name string, fn func()) time.Duration {
	if k%traceEvery != 0 {
		t = nil
	}
	return t.root(name, fn)
}

// rung is one entry point of a layer ladder.
type rung struct {
	name string
	fn   func()
}

// ladder issues one operation at each successive entry point, outermost
// first, and returns each rung's duration in microseconds. Spans can
// only wrap public entry points, so a layer's self time is its rung
// minus the next rung for the same op (selfUS).
func (t *tracer) ladder(rungs ...rung) []float64 {
	op := t.op()
	parent := int32(-1)
	out := make([]float64, len(rungs))
	for i, r := range rungs {
		id, d := t.call(op, parent, r.name, r.fn)
		parent = id
		out[i] = micros(d)
	}
	return out
}

// numSpans returns how many spans were recorded (kept or dropped).
func (t *tracer) numSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// write stores the trace as JSON under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Workload string           `json:"workload"`
		Dropped  int              `json:"dropped"`
		Counts   map[string]int64 `json:"counts"`
		Spans    []span           `json:"spans"`
	}{workload, t.dropped, t.counts, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
