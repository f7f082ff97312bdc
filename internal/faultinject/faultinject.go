// Package faultinject is a process-wide registry of named failpoints:
// chaos tests and the CLI arm faults by name, and production code paths
// consult them with a single atomic load when nothing is armed. There
// are no build tags — the hooks are compiled in always and cost one
// predictable branch on a package-level counter, so the exact binary
// that ships is the binary that gets tortured.
//
// Convention for point names is "<layer>.<site>": the WAL wires
// "wal.write" (fail — optionally tear — a record write), "wal.fsync"
// (fail the durability sync), and "wal.slow" (delay-only, a dragging
// disk); store.SyncDir consults "dir.sync" (fail the directory fsync
// that makes a new segment's or a renamed checkpoint's name durable);
// HTTP transports consult "proxy.transport", "replica.transport" and
// "ingest.transport" via Transport, where Match restricts the fault to
// URLs containing a substring — arming only one side's transport
// partitions a link in one direction.
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSimulatedCrash marks injected failures that model the process
// dying mid-write. Store rollback paths check IsCrash and skip their
// cleanup (truncate/remove) so the torn bytes stay on disk — recovery
// must repair them, exactly as after a real power cut.
var ErrSimulatedCrash = errors.New("faultinject: simulated crash")

// Fault describes one armed failpoint.
type Fault struct {
	// Err is returned to the instrumented call site. Arm substitutes
	// ErrSimulatedCrash when Torn is set and Err is nil.
	Err error
	// Delay is slept inside Fire before the fault is reported; with a
	// nil Err it turns a point into a pure slowdown.
	Delay time.Duration
	// Torn asks the WAL write point to flush a deliberately partial
	// record frame before failing, leaving a torn tail for recovery.
	Torn bool
	// Match restricts transport points to requests whose URL contains
	// the substring; non-matching requests pass through untouched and
	// do not consume Count.
	Match string
	// Count fires the fault at most Count times, then disarms the
	// point. 0 means unlimited.
	Count int64
}

// point is one armed entry; remaining tracks Count consumption.
type point struct {
	f         Fault
	remaining int64 // consumed under the package-level mu
}

var (
	// armed counts armed points; the Fire fast path is a single load of
	// it, so disarmed failpoints cost nothing measurable on hot paths.
	armed atomic.Int32 // published via armed
	mu    sync.Mutex
	reg   = map[string]*point{} // guarded by mu
)

// Arm installs (or replaces) the fault behind name.
func Arm(name string, f Fault) {
	if f.Torn && f.Err == nil {
		f.Err = fmt.Errorf("faultinject: torn write at %s: %w", name, ErrSimulatedCrash)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := reg[name]; !ok {
		armed.Add(1)
	}
	reg[name] = &point{f: f, remaining: f.Count}
}

// Disarm removes the fault behind name, if armed.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := reg[name]; ok {
		delete(reg, name)
		armed.Add(-1)
	}
}

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for name := range reg {
		delete(reg, name)
		armed.Add(-1)
	}
}

// Active lists the armed point names, for diagnostics endpoints.
func Active() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	return names
}

// Fire consults the failpoint: nil when disarmed (the common case — one
// atomic load), otherwise it sleeps the fault's Delay, consumes one
// Count charge, and returns a copy of the fault for the call site to
// act on. A fault whose Count is exhausted disarms itself.
func Fire(name string) *Fault {
	return fire(name, "")
}

// FireURL is Fire for transport points: a fault with a Match substring
// only fires for URLs containing it, and non-matching calls do not
// consume Count.
func FireURL(name, url string) *Fault {
	return fire(name, url)
}

func fire(name, url string) *Fault {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := reg[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	if p.f.Match != "" && !strings.Contains(url, p.f.Match) {
		mu.Unlock()
		return nil
	}
	if p.f.Count > 0 {
		p.remaining--
		if p.remaining < 0 {
			delete(reg, name)
			armed.Add(-1)
			mu.Unlock()
			return nil
		}
		if p.remaining == 0 {
			delete(reg, name)
			armed.Add(-1)
		}
	}
	f := p.f
	mu.Unlock()
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	return &f
}

// Err fires the failpoint and returns its error (nil when disarmed or
// delay-only) — the one-liner for call sites without torn-write
// handling.
func Err(name string) error {
	if f := Fire(name); f != nil {
		return f.Err
	}
	return nil
}

// IsCrash reports whether an injected error models a mid-write process
// death, telling rollback paths to leave the torn bytes in place.
func IsCrash(err error) bool {
	return errors.Is(err, ErrSimulatedCrash)
}
