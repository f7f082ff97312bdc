package workflow

import (
	"fmt"
	"sort"
	"strconv"

	"lipstick/internal/eval"
	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
)

// Granularity selects how much provenance a Runner records.
type Granularity int

const (
	// Plain records no provenance (the "without provenance" baselines of
	// Section 5.4).
	Plain Granularity = iota
	// Coarse records the workflow-level provenance of Section 3.1:
	// workflow inputs, module invocations, module inputs/outputs, and one
	// zoomed-out module node per invocation.
	Coarse
	// Fine records the full database-style provenance of Section 3.2,
	// including module state and per-operator derivations.
	Fine
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case Plain:
		return "plain"
	case Coarse:
		return "coarse"
	default:
		return "fine"
	}
}

// Inputs supplies one execution's workflow inputs: per input node, per
// output relation of that node's module, a bag of tuples.
type Inputs map[string]map[string]*nested.Bag

// Execution is the result of one workflow execution.
type Execution struct {
	// Index is the 0-based execution number within the runner's sequence.
	Index int
	// Outputs holds, for every designated output node, its output
	// relations (annotated with module-output nodes in tracked modes).
	Outputs map[string]map[string]*eval.Relation
	// InputNodes lists the workflow-input provenance nodes created for
	// this execution (empty in plain mode).
	InputNodes []provgraph.NodeID
}

// Output returns a named relation of a named output node.
func (e *Execution) Output(node, rel string) (*eval.Relation, bool) {
	m, ok := e.Outputs[node]
	if !ok {
		return nil, false
	}
	r, ok := m[rel]
	return r, ok
}

// stateEntry is one module's persistent state: per relation, the tuples
// with their base provenance nodes (which survive across invocations and
// executions — Section 3.2's state nodes are per-invocation wrappers over
// these bases).
type stateEntry struct {
	rels map[string]*eval.Relation
}

// Runner executes a workflow repeatedly, threading module state between
// executions (Definition 2.3's sequences) and building the provenance
// graph as it goes. Module invocations run one at a time in topological
// order. A Runner is not safe for concurrent use.
type Runner struct {
	W    *Workflow
	Gran Granularity

	builder *provgraph.Builder
	bags    *eval.BagAnnotations
	state   map[string]*stateEntry // by module name
	topo    []string
	inSet   map[string]bool
	execs   int
	// eagerState forces an "s" node per state tuple per invocation (the
	// letter of Section 3.2); the default materializes state nodes lazily,
	// only for tuples the invocation's queries actually use.
	eagerState bool
	// eventSink observes every provenance-graph mutation as a typed event
	// (streaming capture); nil disables capture.
	eventSink func(provgraph.Event)
	// lastZoom chains coarse-grained invocations of stateful modules.
	lastZoom map[string]provgraph.NodeID
	// engine evaluates the module programs. One serves every invocation,
	// so its reusable buffers do too.
	engine *eval.Engine
}

// Option configures a Runner.
type Option func(*Runner)

// WithEagerStateNodes makes every invocation wrap every state tuple in an
// "s" node up front instead of on first use.
func WithEagerStateNodes() Option {
	return func(r *Runner) { r.eagerState = true }
}

// WithEventSink streams provenance capture: every graph mutation the run
// records is reported to fn as a typed provgraph.Event, in capture order.
// Replaying the stream with provgraph.Replay — locally or on a lipstick
// server via /v1/ingest — reconstructs the run's graph event-for-event.
// fn is called synchronously from the executing goroutine; hand events to
// a provgraph.EventLog (or another buffered sink) if the consumer is
// slow. No-op in Plain granularity.
func WithEventSink(fn func(provgraph.Event)) Option {
	return func(r *Runner) { r.eventSink = fn }
}

// NewRunner validates the workflow and prepares a runner.
func NewRunner(w *Workflow, gran Granularity, opts ...Option) (*Runner, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	topo, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}
	r := &Runner{
		W: w, Gran: gran, topo: topo,
		bags:     eval.NewBagAnnotations(),
		state:    make(map[string]*stateEntry),
		inSet:    make(map[string]bool),
		lastZoom: make(map[string]provgraph.NodeID),
	}
	for _, n := range w.In {
		r.inSet[n] = true
	}
	for _, opt := range opts {
		opt(r)
	}
	if gran != Plain {
		r.builder = provgraph.NewBuilder()
		if r.eventSink != nil {
			r.builder.G.SetEventSink(r.eventSink)
		}
	}
	for _, name := range w.Nodes() {
		m := w.Node(name).Module
		if _, ok := r.state[m.Name]; !ok {
			entry := &stateEntry{rels: make(map[string]*eval.Relation)}
			for rel, schema := range m.State {
				entry.rels[rel] = eval.NewRelation(schema)
			}
			r.state[m.Name] = entry
		}
	}
	return r, nil
}

// Builder exposes the provenance builder (nil in plain mode).
func (r *Runner) Builder() *provgraph.Builder { return r.builder }

// Graph returns the provenance graph built so far (nil in plain mode).
func (r *Runner) Graph() *provgraph.Graph {
	if r.builder == nil {
		return nil
	}
	return r.builder.G
}

// Executions returns the number of executions run so far.
func (r *Runner) Executions() int { return r.execs }

// SetState initializes a module's state relation from a bag; each tuple
// receives a base provenance node labeled "<prefix><i>" in tracked modes.
// It replaces any existing content of that state relation.
func (r *Runner) SetState(module, rel string, bag *nested.Bag, tokenPrefix string) error {
	entry, ok := r.state[module]
	if !ok {
		return fmt.Errorf("workflow: unknown module %q", module)
	}
	dst, ok := entry.rels[rel]
	if !ok {
		return fmt.Errorf("workflow: module %q has no state relation %q", module, rel)
	}
	fresh := eval.NewRelation(dst.Schema)
	for i, t := range bag.Tuples {
		if err := dst.Schema.Validate(t); err != nil {
			return fmt.Errorf("workflow: state %s.%s: %w", module, rel, err)
		}
		prov := provgraph.InvalidNode
		if r.Gran == Fine {
			prov = r.builder.BaseTuple(tokenPrefix + strconv.Itoa(i))
		}
		fresh.Add(r.builder, eval.AnnTuple{Tuple: t, Prov: prov, Mult: 1})
	}
	entry.rels[rel] = fresh
	return nil
}

// State returns a module's current state relation (annotated with base
// nodes).
func (r *Runner) State(module, rel string) (*eval.Relation, bool) {
	entry, ok := r.state[module]
	if !ok {
		return nil, false
	}
	rel2, ok := entry.rels[rel]
	return rel2, ok
}

// Execute runs one workflow execution over the given inputs and returns
// its outputs; module state is updated in place for the next execution.
// After an error the runner's module state may be partially advanced;
// discard the runner.
func (r *Runner) Execute(inputs Inputs) (*Execution, error) {
	execIdx := r.execs
	r.execs++
	exec := &Execution{Index: execIdx, Outputs: make(map[string]map[string]*eval.Relation)}
	// produced[node][rel] is the annotated output of each node.
	produced := make(map[string]map[string]*eval.Relation, len(r.topo))

	for _, name := range r.topo {
		node := r.W.Node(name)
		var out map[string]*eval.Relation
		var err error
		if r.inSet[name] {
			out, err = r.runInputNode(node, inputs[name], exec)
		} else {
			out, err = r.runModuleNode(node, produced, execIdx)
		}
		if err != nil {
			return nil, err
		}
		produced[name] = out
	}
	for _, outNode := range r.W.Out {
		exec.Outputs[outNode] = produced[outNode]
	}
	return exec, nil
}

// runInputNode turns provided workflow inputs into annotated relations;
// every tuple gets a workflow-input ("I") node in tracked modes.
func (r *Runner) runInputNode(node *Node, bags map[string]*nested.Bag, exec *Execution) (map[string]*eval.Relation, error) {
	m := node.Module
	out := make(map[string]*eval.Relation, len(m.Out))
	for _, rel := range sortedNames(m.Out) {
		schema := m.Out[rel]
		res := eval.NewRelation(schema)
		var bag *nested.Bag
		if bags != nil {
			bag = bags[rel]
		}
		if bag != nil {
			prefix := "I" + strconv.Itoa(exec.Index) + "." + node.Name + "." + rel + "."
			for i, t := range bag.Tuples {
				if err := schema.Validate(t); err != nil {
					return nil, fmt.Errorf("workflow: input %s.%s: %w", node.Name, rel, err)
				}
				prov := provgraph.InvalidNode
				if r.builder != nil {
					prov = r.builder.WorkflowInput(prefix + strconv.Itoa(i))
					exec.InputNodes = append(exec.InputNodes, prov)
				}
				res.Add(r.builder, eval.AnnTuple{Tuple: t, Prov: prov, Mult: 1})
			}
		}
		out[rel] = res
	}
	return out, nil
}

// runModuleNode executes one module invocation: binds inputs (i-nodes) and
// state (s-nodes), evaluates the program, persists new state (preserving
// base nodes of unchanged tuples), and wraps outputs in o-nodes.
func (r *Runner) runModuleNode(node *Node, produced map[string]map[string]*eval.Relation, execIdx int) (map[string]*eval.Relation, error) {
	m := node.Module
	b := r.builder
	fine := r.Gran == Fine
	var inv provgraph.InvID
	if b != nil {
		inv = b.BeginInvocation(m.Name, node.Name, execIdx)
	}

	env := &eval.Env{Rels: make(map[string]*eval.Relation, len(m.In)+len(m.State)+len(m.Plan().Steps)), Bags: r.bags}

	// Bind inputs from incoming edges, wrapping each tuple in an i-node.
	// A relation's tuples are distinct, so are their copies: they are
	// appended unhashed.
	var inputNodes []provgraph.NodeID
	for _, e := range r.W.edges {
		if e.To != node.Name {
			continue
		}
		src := produced[e.From]
		for _, rel := range e.Relations {
			srcRel, ok := src[rel]
			if !ok {
				return nil, fmt.Errorf("workflow: node %s did not produce relation %q", e.From, rel)
			}
			bound := &eval.Relation{Schema: m.In[rel], Tuples: make([]eval.AnnTuple, 0, srcRel.Len())}
			for i := range srcRel.Len() {
				t := srcRel.At(i)
				prov := provgraph.InvalidNode
				if b != nil {
					prov = b.ModuleInput(inv, t.Prov)
					inputNodes = append(inputNodes, prov)
				}
				bound.AddDistinct(eval.AnnTuple{Tuple: t.Tuple, Prov: prov, Mult: t.Mult})
			}
			env.Set(rel, bound)
		}
	}
	// Input relations no edge supplies are bound empty (the workflow must
	// opt in via AllowPartialInputs for validation to permit this).
	for _, rel := range sortedNames(m.In) {
		if _, ok := env.Rels[rel]; !ok {
			env.Set(rel, eval.NewRelation(m.In[rel]))
		}
	}

	// Bind state, wrapping each tuple in an s-node (fine-grained only:
	// coarse provenance does not expose module state, and plain and
	// coarse state carries no annotations, so it is bound as is — the
	// engine never mutates an input relation). By default the s-node is
	// deferred until the invocation's queries actually use the tuple,
	// keeping the graph proportional to the touched state.
	entry := r.state[m.Name]
	boundState := map[string]*eval.Relation{}
	stateNode := func(base provgraph.NodeID) provgraph.NodeID { return b.StateTuple(inv, base) }
	for _, rel := range sortedNames(m.State) {
		bound := entry.rels[rel]
		switch {
		case fine && r.eagerState:
			bound = bound.Rebind(func(t eval.AnnTuple) eval.AnnTuple {
				return eval.AnnTuple{Tuple: t.Tuple, Prov: stateNode(t.Prov), Mult: t.Mult}
			})
		case fine:
			bound = bound.BindDeferred(stateNode)
		}
		env.Set(rel, bound)
		boundState[rel] = bound
	}

	// Evaluate the module program. Fine mode tracks per-operator
	// provenance; plain and coarse modes run the untracked engine.
	if m.Program != "" {
		if r.engine == nil || r.engine.Tracked() != fine {
			r.engine = eval.New(pickBuilder(fine, b))
		}
		if err := r.engine.Run(m.Plan(), env); err != nil {
			return nil, fmt.Errorf("workflow: node %s (%s): %w", node.Name, m.Name, err)
		}
	}

	// Persist new state. A relation the program reassigned replaces the
	// old state; tuples equal to existing state keep their base node
	// (cars stay C2 across executions), new tuples adopt their derivation
	// node as base.
	for _, rel := range sortedNames(m.State) {
		cur := env.Rels[rel]
		if cur == boundState[rel] {
			continue // untouched: state carries over with original bases
		}
		old := entry.rels[rel]
		fresh := eval.NewRelation(old.Schema)
		for i := range cur.Len() {
			t := cur.At(i)
			var base provgraph.NodeID
			if prev, ok := old.Lookup(t.Tuple); ok {
				// Unchanged tuple: keep its base node so provenance stays
				// anchored (car C2 keeps node N01 across executions).
				base = prev.Prov
			} else if fine {
				// New state tuple: its derivation becomes the base that
				// future invocations' s-nodes wrap.
				base = t.Node()
			} else {
				base = provgraph.InvalidNode
			}
			fresh.Add(pickBuilder(fine, b), eval.AnnTuple{Tuple: t.Tuple, Prov: base, Mult: t.Mult})
		}
		entry.rels[rel] = fresh
	}

	// Coarse mode: a single zoomed-out module node stands for the whole
	// invocation, wired from every input node (Section 3.1). Stateful
	// modules additionally chain to their previous invocation: coarse
	// provenance cannot see inside the state, so the black-box
	// approximation is that an invocation depends on everything the module
	// ever saw — which is what makes each sale "depend on all user inputs"
	// in the paper's Section 5.5 coarse-grained comparison.
	var zoom provgraph.NodeID = provgraph.InvalidNode
	if r.Gran == Coarse {
		zoom = b.ZoomNode(inv)
		for _, in := range inputNodes {
			b.AddEdge(in, zoom)
		}
		if len(m.State) > 0 {
			if prev, ok := r.lastZoom[m.Name]; ok {
				b.AddEdge(prev, zoom)
			}
			r.lastZoom[m.Name] = zoom
		}
	}

	// Wrap outputs in o-nodes, appending the distinct tuples unhashed.
	out := make(map[string]*eval.Relation, len(m.Out))
	for _, rel := range sortedNames(m.Out) {
		cur, ok := env.Rels[rel]
		if !ok {
			return nil, fmt.Errorf("workflow: node %s: output relation %q was not produced", node.Name, rel)
		}
		res := &eval.Relation{Schema: m.Out[rel], Tuples: make([]eval.AnnTuple, 0, cur.Len())}
		for i := range cur.Len() {
			t := cur.At(i)
			prov := provgraph.InvalidNode
			switch r.Gran {
			case Fine:
				prov = b.ModuleOutput(inv, t.Node())
			case Coarse:
				prov = b.ModuleOutput(inv, zoom)
			}
			res.AddDistinct(eval.AnnTuple{Tuple: t.Tuple, Prov: prov, Mult: t.Mult})
		}
		out[rel] = res
	}
	return out, nil
}

func pickBuilder(tracked bool, b *provgraph.Builder) *provgraph.Builder {
	if tracked {
		return b
	}
	return nil
}

func sortedNames(m nested.RelationSchemas) []string {
	names := m.Names()
	sort.Strings(names)
	return names
}
