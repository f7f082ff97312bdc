package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lipstick/internal/core"
	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
	"lipstick/internal/serve"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// scale sizes every workload. The paper's Section 5.3 run is 20,000 cars
// and 20 executions; "full" keeps the 20 executions but cuts the
// inventory so that three set-ups and twelve seconds of windows fit the
// driver's time cap (README, "Time budget").
type scale struct {
	name  string
	cars  int
	execs int
	// queryOps is how many operations each query-snapshot client issues
	// per window.
	queryOps int
	// ingestRate and readRate are serve-mixed's fixed open-loop rates
	// (events/s, queries/s), set once at about half of the seed commit's
	// closed-loop capacity on two cores and never derived per run.
	ingestRate int
	readRate   int
}

var scales = map[string]scale{
	"full":  {name: "full", cars: 8000, execs: 20, queryOps: 250, ingestRate: 100_000, readRate: 250},
	"smoke": {name: "smoke", cars: 1200, execs: 4, queryOps: 60, ingestRate: 100_000, readRate: 250},
}

// dealership drives one Car-dealerships run execution by execution, so
// each workflow.Runner.Execute can be timed on its own.
type dealership struct {
	run   *workflowgen.DealershipRun
	execs []*workflow.Execution
}

// newDealership seeds the inventories (from seed) and fixes the buyer.
func newDealership(sc scale, seed int64, gran workflow.Granularity, sink func(provgraph.Event)) (*dealership, error) {
	run, err := workflowgen.NewDealershipRun(workflowgen.DealershipParams{
		NumCars: sc.cars, NumExec: sc.execs, Seed: seed, Gran: gran, EventSink: sink,
	})
	if err != nil {
		return nil, err
	}
	return &dealership{run: run}, nil
}

// inputs builds execution e's workflow inputs. The buyer accepts the
// best bid on every odd execution and declines on every even one: the
// generator's own random roll makes the number of purchases — and with
// it the graph size — swing by a fifth between seeds, which would read
// as run-to-run noise in every metric.
func (d *dealership) inputs(e int) workflow.Inputs {
	b := d.run.Buyer
	roll := 2.0 // above any acceptance probability: decline
	if e%2 == 1 {
		roll = 0
	}
	return workflow.Inputs{
		"req": {"Requests": nested.NewBag(nested.NewTuple(
			nested.Str(b.UserID), nested.Str(fmt.Sprintf("B%d", e)), nested.Str(b.Model)))},
		"choice": {"Choice": nested.NewBag(nested.NewTuple(
			nested.Float(1e12), nested.Float(1), nested.Float(roll)))},
	}
}

// execute runs the next execution.
func (d *dealership) execute() error {
	exec, err := d.run.Runner.Execute(d.inputs(len(d.execs)))
	if err != nil {
		return err
	}
	d.execs = append(d.execs, exec)
	return nil
}

// executeAll runs the remaining executions of the scale.
func (d *dealership) executeAll(sc scale) error {
	for len(d.execs) < sc.execs {
		if err := d.execute(); err != nil {
			return err
		}
	}
	return nil
}

func (d *dealership) graph() *provgraph.Graph { return d.run.Runner.Graph() }

// snapshot assembles the tracker's persistent output (graph plus every
// execution's annotated outputs) in a deterministic relation order.
func (d *dealership) snapshot() *store.Snapshot {
	snap := &store.Snapshot{Graph: d.graph()}
	for _, e := range d.execs {
		nodes := make([]string, 0, len(e.Outputs))
		for node := range e.Outputs {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			rels := make([]string, 0, len(e.Outputs[node]))
			for rel := range e.Outputs[node] {
				rels = append(rels, rel)
			}
			sort.Strings(rels)
			for _, rel := range rels {
				dump := store.RelationDump{Execution: e.Index, Node: node, Relation: rel}
				for _, t := range e.Outputs[node][rel].Tuples {
					dump.Tuples = append(dump.Tuples, store.AnnotatedTuple{Tuple: t.Tuple, Prov: t.Prov, Mult: t.Mult})
				}
				snap.Outputs = append(snap.Outputs, dump)
			}
		}
	}
	return snap
}

// capture runs one fine-grained dealership to completion, recording its
// event stream.
func capture(sc scale, seed int64) (*dealership, []provgraph.Event, error) {
	log := provgraph.NewEventLog()
	d, err := newDealership(sc, seed, workflow.Fine, log.Record)
	if err != nil {
		return nil, nil, err
	}
	if err := d.executeAll(sc); err != nil {
		return nil, nil, err
	}
	return d, log.Drain(), nil
}

// batch is a run of consecutive events and the sequence of its first.
type batch struct {
	first  uint64
	events []provgraph.Event
}

// batches cuts an event stream into consecutive batches of n events.
func batches(events []provgraph.Event, n int) []batch {
	var out []batch
	for i := 0; i < len(events); i += n {
		out = append(out, batch{first: uint64(i + 1), events: events[i:min(i+n, len(events))]})
	}
	return out
}

// appendAll appends the batches to a live graph in order, each waiting
// for its (durable, where the graph is) acknowledgement.
func appendAll(lg *core.LiveGraph, bs []batch) error {
	for _, b := range bs {
		if _, err := lg.Append(b.first, b.events); err != nil {
			return err
		}
	}
	return nil
}

// maxExprLeaves bounds the provenance expressions the benchmark asks
// for. serve's lineage answer renders the node's semiring expression as
// a tree, whose size is exponential in derivation depth: for most module
// outputs of a 20-execution run it has more than 1e30 leaves and the
// request never returns. Lineage targets are therefore drawn from nodes
// whose expression has at most this many leaves; deep traversals are
// exercised by the subgraph queries, which render nothing.
const maxExprLeaves = 2048

// exprLeaves computes, for every node, the number of leaves of the tree
// provgraph.Graph.Expr(id).String() would print, saturating just above
// maxExprLeaves. It mirrors Expr's shape rules from outside: tokens are
// leaves, every other node combines its live p-node in-neighbours.
func exprLeaves(g *provgraph.Graph) []int {
	const unknown = -1
	leaves := make([]int, g.TotalNodes())
	for i := range leaves {
		leaves[i] = unknown
	}
	var visit func(id provgraph.NodeID) int
	visit = func(id provgraph.NodeID) int {
		if leaves[id] != unknown {
			return leaves[id]
		}
		leaves[id] = 1 // cycle guard, as in Expr
		n := g.Node(id)
		total := 0
		if g.Alive(id) && n.Type != provgraph.TypeBaseTuple && n.Type != provgraph.TypeWorkflowInput &&
			n.Type != provgraph.TypeInvocation && n.Type != provgraph.TypeZoom {
			for _, in := range g.In(id) {
				if !g.Alive(in) || g.Node(in).Class == provgraph.ClassV {
					continue
				}
				total = min(total+visit(in), maxExprLeaves+1)
			}
		}
		leaves[id] = max(total, 1)
		return leaves[id]
	}
	for id := range leaves {
		visit(provgraph.NodeID(id))
	}
	return leaves
}

// targets are the query arguments of the read workloads, derived from
// the captured graph alone.
type targets struct {
	// renderable: the p-nodes with a derivation whose provenance
	// expression the service can render (2..maxExprLeaves leaves), in id
	// order, which is the order they enter the event stream.
	renderable []provgraph.NodeID
	// lineage: the deep quarter of renderable (at least maxExprLeaves/4
	// leaves), deepest first; rank 0 is the hottest Zipf key.
	lineage []provgraph.NodeID
	// subgraph: module-output tuples ("o" nodes), newest first.
	subgraph []provgraph.NodeID
	// del: the highest-fan-out nodes (Section 5.6's deletion targets).
	del []provgraph.NodeID
	// finds: selective index-backed selections.
	finds []findTarget
}

// findTarget is one selection in the service's string form and in the
// query processor's typed form.
type findTarget struct {
	req    serve.FindRequest
	filter core.NodeFilter
}

// zoomModules are the modules a session zoom is drawn from.
var zoomModules = []string{"M_agg", "M_dealer1", "M_dealer2", "M_dealer3", "M_dealer4"}

func newTargets(g *provgraph.Graph) *targets {
	t := &targets{}
	leaves := exprLeaves(g)
	g.Nodes(func(n provgraph.Node) bool {
		if n.Class == provgraph.ClassP && leaves[n.ID] >= 2 && leaves[n.ID] <= maxExprLeaves {
			t.renderable = append(t.renderable, n.ID)
			if leaves[n.ID] >= maxExprLeaves/4 {
				t.lineage = append(t.lineage, n.ID)
			}
		}
		if n.Type == provgraph.TypeModuleOutput {
			t.subgraph = append(t.subgraph, n.ID)
		}
		return true
	})
	sort.SliceStable(t.lineage, func(i, j int) bool { return leaves[t.lineage[i]] > leaves[t.lineage[j]] })
	slices.Reverse(t.subgraph)
	t.del = workflowgen.HighFanoutNodes(g, 50)
	byType := func(module string, ty provgraph.Type) findTarget {
		return findTarget{
			req:    serve.FindRequest{Module: module, Types: []string{ty.String()}},
			filter: core.NodeFilter{Module: module, Types: []provgraph.Type{ty}},
		}
	}
	for k := 1; k <= 4; k++ {
		t.finds = append(t.finds, byType(fmt.Sprintf("M_dealer%d", k), provgraph.TypeModuleOutput))
	}
	t.finds = append(t.finds,
		byType("M_agg", provgraph.TypeModuleInput),
		byType("", provgraph.TypeWorkflowInput),
		byType("", provgraph.TypeInvocation),
		findTarget{
			req:    serve.FindRequest{Ops: []string{provgraph.OpAgg.String()}},
			filter: core.NodeFilter{Ops: []provgraph.Op{provgraph.OpAgg}},
		},
	)
	return t
}

// zipfRanks returns k ranks in [0, n) that follow the Zipf distribution
// with exponent 1.1 exactly: the j-th is the distribution's (j+0.5)/k
// quantile (systematic sampling), so no run is luckier than another.
func zipfRanks(n, k int) []int {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -1.1)
		cdf[r] = sum
	}
	ranks := make([]int, k)
	for j := range ranks {
		u := (float64(j) + 0.5) / float64(k) * sum
		ranks[j] = min(sort.SearchFloat64s(cdf, u), n-1)
	}
	return ranks
}
