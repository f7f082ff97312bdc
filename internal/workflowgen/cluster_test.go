package workflowgen

import (
	"math"
	"testing"
	"testing/quick"
)

// dealershipJob models the Car-dealerships workflow: a serial front
// (request distribution, final aggregation) and four equal reduce tasks
// (one bid generation per dealership).
func dealershipJob(perDealer float64) job {
	return job{
		serialCost: 1.2,
		tasks: []reduceTask{
			{key: 0, cost: perDealer},
			{key: 1, cost: perDealer},
			{key: 2, cost: perDealer},
			{key: 3, cost: perDealer},
		},
	}
}

// freeCluster has the paper's 27 x 2 slots and no per-reducer overhead.
var freeCluster = cluster{machines: 27, slotsPerMachine: 2}

func TestClusterSimulateValidation(t *testing.T) {
	j := dealershipJob(1)
	if _, _, err := paperCluster.simulate(j, 0); err == nil {
		t.Error("zero reducers accepted")
	}
	bad := cluster{}
	if _, _, err := bad.simulate(j, 1); err == nil {
		t.Error("invalid cluster accepted")
	}
}

func TestClusterSingleReducerSerializesWork(t *testing.T) {
	m, _, err := freeCluster.simulate(dealershipJob(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.2 + 4*2.0; math.Abs(m-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", m, want)
	}
}

func TestClusterFourReducersSplitDealers(t *testing.T) {
	m, _, err := freeCluster.simulate(dealershipJob(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.2 + 2.0; math.Abs(m-want) > 1e-9 { // dealers perfectly parallel
		t.Errorf("makespan = %v, want %v", m, want)
	}
}

func TestClusterWavesWhenReducersExceedSlots(t *testing.T) {
	c := cluster{machines: 1, slotsPerMachine: 2}
	j := job{tasks: []reduceTask{{key: 0, cost: 1}, {key: 1, cost: 1}, {key: 2, cost: 1}, {key: 3, cost: 1}}}
	m, waves, err := c.simulate(j, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 unit reducers on 2 slots: two waves, makespan 2.
	if math.Abs(m-2) > 1e-9 {
		t.Errorf("makespan = %v, want 2", m)
	}
	if waves != 2 {
		t.Errorf("waves = %d, want 2", waves)
	}
}

// TestClusterSweepShapeMatchesFigure5c: improvement peaks in the 2-4
// reducer range at roughly 50%, stays comparable within 2-4, and declines
// for large reducer counts — the shape of Figure 5(c).
func TestClusterSweepShapeMatchesFigure5c(t *testing.T) {
	points, err := paperCluster.sweep(dealershipJob(1.0), []int{1, 2, 3, 4, 10, 20, 30, 40, 54})
	if err != nil {
		t.Fatal(err)
	}
	byReducers := map[int]sweepPoint{}
	best := points[0]
	for _, p := range points {
		byReducers[p.reducers] = p
		if p.improvement > best.improvement {
			best = p
		}
	}
	if best.reducers < 2 || best.reducers > 4 {
		t.Errorf("best improvement at %d reducers, want 2-4 (points %+v)", best.reducers, points)
	}
	if best.improvement < 40 || best.improvement > 60 {
		t.Errorf("peak improvement = %.1f%%, want ≈50%%", best.improvement)
	}
	// 2-4 comparable (the paper calls the whole range comparable; hash
	// placement makes individual counts differ by some margin).
	for _, r := range []int{2, 3, 4} {
		if math.Abs(byReducers[r].improvement-best.improvement) > 25 {
			t.Errorf("improvement at %d reducers (%.1f%%) not comparable to best (%.1f%%)",
				r, byReducers[r].improvement, best.improvement)
		}
	}
	// Declines beyond the sweet spot, but still positive at 54 (the paper
	// reports roughly 30-45% with many reducers).
	if byReducers[54].improvement >= best.improvement {
		t.Error("improvement should decline at 54 reducers")
	}
	if byReducers[54].improvement <= 0 {
		t.Error("54 reducers should still beat a single reducer")
	}
	// Baseline point is exactly zero.
	if math.Abs(byReducers[1].improvement) > 1e-9 {
		t.Error("improvement at 1 reducer must be 0")
	}
}

// TestClusterMoreWorkMoreTime: makespan is monotone in task cost.
func TestClusterMoreWorkMoreTime(t *testing.T) {
	f := func(seedCost uint8, reducers uint8) bool {
		cost := 0.5 + float64(seedCost)/16
		r := int(reducers)%8 + 1
		small, _, err1 := paperCluster.simulate(dealershipJob(cost), r)
		large, _, err2 := paperCluster.simulate(dealershipJob(cost*2), r)
		return err1 == nil && err2 == nil && large > small
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestClusterDeterminism: simulation is a pure function.
func TestClusterDeterminism(t *testing.T) {
	a, _, _ := paperCluster.simulate(dealershipJob(1.3), 7)
	b, _, _ := paperCluster.simulate(dealershipJob(1.3), 7)
	if a != b {
		t.Error("simulation not deterministic")
	}
}

func TestClusterSkewedTasksBoundMakespan(t *testing.T) {
	j := job{tasks: []reduceTask{{key: 0, cost: 10}, {key: 1, cost: 0.1}, {key: 2, cost: 0.1}}}
	m, _, err := freeCluster.simulate(j, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The 10-unit task lower-bounds the makespan regardless of reducers.
	if m < 10 {
		t.Errorf("makespan = %v, want >= 10 (straggler bound)", m)
	}
}
