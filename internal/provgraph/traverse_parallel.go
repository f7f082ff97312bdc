package provgraph

import (
	"runtime"
	"sync"
)

// Frontier-parallel BFS. When a traversal's pending queue grows past a
// threshold, bfsOf expands the whole pending segment in one batch: bounded
// workers scan contiguous slices of the frontier concurrently, each
// collecting candidate neighbors into its own pooled buffer, and a serial
// merge in (frontier order, adjacency order) performs the actual visits.
//
// Workers only READ shared state — the adjacency, the liveness bitset, and
// the visited marks written by previous batches (made visible by the
// WaitGroup / goroutine-start edges) — so the expansion needs no atomics
// and no locks. Because the serial merge applies first-visit dedup in
// exactly the order a sequential FIFO loop would have discovered nodes,
// the output is byte-identical to the sequential traversal, which the
// equivalence tests assert on every workload generator.

const (
	maxTraversalWorkers  = 16
	minFrontierPerWorker = 256
)

// parallelFrontierThreshold is the pending-queue length at which a
// traversal batch fans out. Small queries never pay goroutine overhead.
var parallelFrontierThreshold = 2048

// SetParallelFrontierThreshold overrides the fan-out threshold and returns
// the previous value; n <= 0 disables parallel traversal. Tests force both
// code paths over the same graphs with it. Not safe to call concurrently
// with running traversals.
func SetParallelFrontierThreshold(n int) int {
	old := parallelFrontierThreshold
	if n <= 0 {
		n = int(^uint(0) >> 1)
	}
	parallelFrontierThreshold = n
	return old
}

// candBuf is one worker's pooled candidate buffer, with the adjacency
// buffer its view calls assemble split lists in.
type candBuf struct{ ids, adj []NodeID }

var candPool = sync.Pool{New: func() any { return new(candBuf) }}

// expandFrontierParallel expands the pending segment s.queue[head:] in one
// parallel batch, appending discoveries to s.queue; the caller advances
// head past the segment.
func expandFrontierParallel(v view, s *visitScratch, head int, adj adjFunc) {
	end := len(s.queue)
	frontier := s.queue[head:end:end]

	workers := runtime.GOMAXPROCS(0)
	if workers > maxTraversalWorkers {
		workers = maxTraversalWorkers
	}
	per := (len(frontier) + workers - 1) / workers
	if per < minFrontierPerWorker {
		per = minFrontierPerWorker
	}
	nchunks := (len(frontier) + per - 1) / per

	bufs := make([]*candBuf, nchunks)
	var wg sync.WaitGroup
	for c := 0; c < nchunks; c++ {
		lo := c * per
		hi := lo + per
		if hi > len(frontier) {
			hi = len(frontier)
		}
		buf := candPool.Get().(*candBuf)
		buf.ids = buf.ids[:0]
		bufs[c] = buf
		wg.Add(1)
		go func(part []NodeID, buf *candBuf) {
			defer wg.Done()
			for _, cur := range part {
				for _, next := range adj(v, cur, &buf.adj) {
					// Read-only pre-filter; the serial merge re-checks, so
					// cross-worker duplicates are harmless.
					if v.Alive(next) && s.mark[next] != s.epoch {
						buf.ids = append(buf.ids, next)
					}
				}
			}
		}(frontier[lo:hi], buf)
	}
	wg.Wait()

	// Serial merge in frontier order: first-visit wins, matching the
	// discovery order of the sequential loop exactly.
	for _, buf := range bufs {
		for _, next := range buf.ids {
			if s.visit(next) {
				s.queue = append(s.queue, next)
			}
		}
		candPool.Put(buf)
	}
}
