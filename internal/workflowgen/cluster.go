package workflowgen

import (
	"fmt"
	"sort"
)

// cluster is a deterministic discrete-event simulator of a Hadoop-style
// map-reduce cluster, standing in for the 27-node cluster of Section
// 5.4's parallelism experiment (Figure 5(c), its only user). The paper
// controls the number of reducers per query with Pig Latin's PARALLEL
// clause and reports the relative improvement over a single reducer; what
// matters is the trade-off it demonstrates — gains from splitting the
// reduce work (the four dealers' bid generation) against per-reducer
// scheduling overhead — not the absolute seconds of the authors' testbed.
//
// A job is one map-reduce stage with a serial (non-parallelizable) cost
// and a set of reduce tasks costed by measured work volumes from real
// engine runs. Reduce tasks hash to reducers; reducers run in waves over
// the cluster's slots; the job tracker pays a serial setup cost per
// reducer. All quantities are in abstract cost units; only ratios are
// meaningful.
type cluster struct {
	// machines is the number of worker machines (the paper used 27).
	machines int
	// slotsPerMachine is the number of reducer slots per machine (2 in
	// the paper, for up to 54 concurrent reducers).
	slotsPerMachine int
	// reducerSetupCost is the serial, job-tracker-side cost of launching
	// one reducer (task scheduling, shuffle setup).
	reducerSetupCost float64
	// reducerStartCost is the per-reducer startup cost paid on the worker
	// (JVM spin-up in Hadoop terms); reducers in the same wave pay it in
	// parallel.
	reducerStartCost float64
}

// paperCluster is the paper's cluster: 27 machines, 2 reducer slots each.
// The cost constants are calibrated in normalized units where one
// dealership's bid generation ≈ 1.0; they reproduce Figure 5(c)'s shape
// (peak ≈50% improvement at 2-4 reducers, positive but lower improvement
// at 54).
var paperCluster = cluster{
	machines:         27,
	slotsPerMachine:  2,
	reducerSetupCost: 0.035,
	reducerStartCost: 0.05,
}

// reduceTask is one reduce task: key selects the reducer (hash
// partitioning), cost is the work volume.
type reduceTask struct {
	key  uint64
	cost float64
}

// job is one map-reduce stage.
type job struct {
	// serialCost is work that cannot be spread over reducers (map-side
	// scan, single-key aggregation, job submission).
	serialCost float64
	tasks      []reduceTask
}

// simulate runs the job on the given number of reducers: it partitions
// the tasks over reducers, schedules reducers onto slots in waves, and
// accounts for setup costs. It returns the simulated makespan and the
// number of scheduling waves.
func (c cluster) simulate(j job, reducers int) (makespan float64, waves int, err error) {
	if reducers < 1 {
		return 0, 0, fmt.Errorf("cluster: reducers must be >= 1, got %d", reducers)
	}
	if c.machines < 1 || c.slotsPerMachine < 1 {
		return 0, 0, fmt.Errorf("cluster: invalid cluster shape %d x %d", c.machines, c.slotsPerMachine)
	}
	loads := make([]float64, reducers)
	for _, t := range j.tasks {
		loads[int(t.key%uint64(reducers))] += t.cost
	}
	// Serial job-tracker setup: one launch per reducer.
	makespan = j.serialCost + c.reducerSetupCost*float64(reducers)

	// Greedy longest-processing-time scheduling of reducers onto slots.
	slots := min(c.machines*c.slotsPerMachine, reducers)
	order := make([]int, reducers)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	slotTimes := make([]float64, slots)
	for _, rid := range order {
		// Pick the least-loaded slot.
		best := 0
		for s := 1; s < slots; s++ {
			if slotTimes[s] < slotTimes[best] {
				best = s
			}
		}
		slotTimes[best] += c.reducerStartCost + loads[rid]
	}
	maxSlot := 0.0
	for _, t := range slotTimes {
		maxSlot = max(maxSlot, t)
	}
	return makespan + maxSlot, (reducers + slots - 1) / slots, nil
}

// sweepPoint is one reducer count of a sweep and its percent improvement
// over a single reducer.
type sweepPoint struct {
	reducers    int
	improvement float64
}

// sweep simulates the job for every reducer count in counts, reproducing
// Figure 5(c)'s series.
func (c cluster) sweep(j job, counts []int) ([]sweepPoint, error) {
	base, _, err := c.simulate(j, 1)
	if err != nil {
		return nil, err
	}
	out := make([]sweepPoint, 0, len(counts))
	for _, n := range counts {
		m, _, err := c.simulate(j, n)
		if err != nil {
			return nil, err
		}
		out = append(out, sweepPoint{reducers: n, improvement: 100 * (base - m) / base})
	}
	return out, nil
}
