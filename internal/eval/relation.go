// Package eval executes compiled Pig Latin plans over nested relations.
//
// It has two modes. In plain mode it is an ordinary bag-semantics query
// engine. In tracked mode it additionally applies the fine-grained
// provenance construction of Section 3.2 of the Lipstick paper, building
// provenance-graph nodes for every operator (+ for FOREACH projection,
// · for JOIN, δ for GROUP/COGROUP/DISTINCT, ⊗/aggregate v-nodes for
// FOREACH aggregation, black-box nodes for UDFs).
//
// Relations are represented as lists of distinct tuples annotated with a
// provenance node and a multiplicity — the N[X]-style reading where a bag
// is its support plus annotations. Plain mode uses the same representation
// with no provenance nodes; multiplicities carry the bag semantics, so the
// two modes compute identical bags (a property the tests exploit).
//
// # Keying
//
// Every operator that matches values — a relation's dedupe index, GROUP
// and COGROUP bucketing, JOIN, FOREACH's merge of equal results — uses one
// typed keying: nested.Value.KeyHash, a 64-bit hash, into a keyIndex
// (hash -> dense id, colliding ids chained), with each hit confirmed by
// nested.KeyEqual. Equality is exactly that of the canonical encoding
// nested.Value.Key (kinds exact, floats by bits, bags as multisets), but no
// key is ever rendered to a string. Composite keys are evaluated into a
// reused scratch tuple, so evaluating, hashing and probing a key allocates
// nothing; only a key that is kept (a new group, a build-side key) is
// copied.
//
// # Joins
//
// An n-way JOIN hashes its smallest input only and probes every other
// input against that table once, evaluating each tuple's key exactly once;
// a probe miss allocates nothing, so joining a large relation (a dealer's
// Cars state) with a small one costs a hash per large-side tuple. Matches
// are chained per build-side key and input. The output order is the one
// the provenance node ids depend on and does not depend on which input was
// built: keys in the first input's first-seen order, and per key the cross
// product in input order, the first input varying slowest. When the
// smallest input is empty the join is empty and no key is evaluated.
//
// A probed input that lives across joins — module state, bound afresh for
// every invocation — keeps a probe index per compiled key list, shared by
// the relation and its views. The second probe of a relation by the same
// key list indexes it (key -> its tuple positions, in relation order), and
// from then on the input's matches are index lookups of the build side's
// keys, not a scan: a join against a dealer's Cars state costs its answer,
// not the state's size. Temporaries are probed once, so they are never
// indexed. An index extends itself over tuples appended since it was
// built; a view holding fewer tuples than its base's index covers scans.
// Either way the output is the scan's, tuple for tuple and node for node.
// A join updates its inputs' probe indexes, so joins over one relation
// must not run concurrently.
//
// # Distinct appends
//
// A relation's tuple index (key hash -> position) is built lazily: the
// first find or Lookup indexes every tuple, and later ones extend it over
// the tuples appended since. Add consults it, because Add must merge a
// duplicate. Outputs that are distinct by construction skip it: GROUP and
// COGROUP emit one tuple per distinct key, JOIN one per combination of
// distinct input tuples (as long as every part has its input schema's
// arity, so that no two concatenations can coincide), and the workflow
// runner's input binding and output wrapping copy a relation that is
// already distinct. They append with AddDistinct and hash nothing; a
// relation nobody looks up is never indexed.
//
// # State binding
//
// The workflow runner binds module state once per invocation, and the
// binding costs O(1), not O(state). BindDeferred returns a view that
// shares its base's tuple slice, tuple index and probe indexes; it holds
// one memo of the invocation's state nodes, which grows with the nodes
// made, not with the state. Read a relation's tuples through At: for a
// view it fills in the deferred annotation, whereas the shared Tuples
// slice holds the base's. Views are read-only; Add on one panics.
package eval

import (
	"fmt"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
)

// AnnTuple is one distinct tuple of a relation with its annotation.
type AnnTuple struct {
	Tuple *nested.Tuple
	// Prov is the tuple's provenance node (InvalidNode in plain mode).
	Prov provgraph.NodeID
	// slot is the tuple's position in deferred.
	slot int32
	// Mult is the tuple's multiplicity (bag semantics).
	Mult int
	// deferred, when set, creates the tuple's node on first use. The
	// workflow runner binds module state this way (BindDeferred): an
	// invocation's "s" node for a state tuple materializes only when the
	// invocation's queries touch the tuple, which keeps the graph linear
	// in the touched data rather than in the full state (the behaviour
	// underlying the paper's Section 5.5 measurements).
	deferred *deferredNodes
}

// deferredNodes is one invocation's binding of one state relation: slot
// i's node is mk(base[i].Prov), made on first use and memoized here, so
// every copy of the tuple resolves to the same node. The memo holds the
// slots touched so far, so an invocation pays for the state it touches,
// not for the whole relation.
type deferredNodes struct {
	base  []AnnTuple
	nodes map[int32]provgraph.NodeID // slot -> its node; nil until the first node is made
	mk    func(base provgraph.NodeID) provgraph.NodeID
}

func (d *deferredNodes) node(slot int32) provgraph.NodeID {
	if id, ok := d.nodes[slot]; ok {
		return id
	}
	if d.nodes == nil {
		d.nodes = make(map[int32]provgraph.NodeID)
	}
	id := d.mk(d.base[slot].Prov)
	d.nodes[slot] = id
	return id
}

// Node returns the tuple's provenance node, materializing it if deferred.
func (t AnnTuple) Node() provgraph.NodeID {
	if t.deferred != nil {
		return t.deferred.node(t.slot)
	}
	return t.Prov
}

// Relation is a bag of tuples in support+multiplicity form.
type Relation struct {
	Schema *nested.Schema
	// Tuples holds the distinct tuples in relation order. Read them with
	// At: a BindDeferred view shares its base's slice, so its elements
	// carry the base's annotations, not the view's.
	Tuples []AnnTuple
	// view names how a read-only view was made ("" for an owned
	// relation); Add panics on a view.
	view string
	// deferred annotates every tuple of a BindDeferred view.
	deferred *deferredNodes
	// indexes holds the lazily built tuple index and join probe indexes;
	// nil until the first is needed, then shared with every view.
	indexes *relIndexes
}

// relIndexes are a relation's lazily built indexes. A relation and its
// views share one: a view holds its base's tuples, or (Rebind) the same
// tuples in the same order.
type relIndexes struct {
	// tuples maps a tuple's key hash to its position. It covers the first
	// len(tuples.next) tuples; find extends it over the rest.
	tuples keyIndex
	// probes holds the join probe indexes, one per compiled key list.
	probes []*probeIndex
}

// shared returns the relation's indexes, creating them.
func (r *Relation) shared() *relIndexes {
	if r.indexes == nil {
		r.indexes = &relIndexes{}
	}
	return r.indexes
}

// NewRelation returns an empty relation with the given schema.
func NewRelation(schema *nested.Schema) *Relation {
	return &Relation{Schema: schema}
}

// Len returns the number of distinct tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// At returns tuple i with the relation's annotation of it.
func (r *Relation) At(i int) AnnTuple {
	t := r.Tuples[i]
	if r.deferred != nil {
		return AnnTuple{Tuple: t.Tuple, Prov: provgraph.InvalidNode, Mult: t.Mult, slot: int32(i), deferred: r.deferred}
	}
	return t
}

// Card returns the bag cardinality (sum of multiplicities).
func (r *Relation) Card() int {
	n := 0
	for _, t := range r.Tuples {
		n += t.Mult
	}
	return n
}

// find returns the position of the tuple equal to t (whose KeyHash is h),
// or -1, first extending the tuple index over every tuple. A position past
// the relation's own tuples belongs to tuples its base gained after the
// view was made, and is skipped.
func (r *Relation) find(h uint64, t *nested.Tuple) int32 {
	x := &r.shared().tuples
	for pos := len(x.next); pos < len(r.Tuples); pos++ {
		x.add(r.Tuples[pos].Tuple.KeyHash())
	}
	for pos := x.first(h); pos >= 0; pos = x.next[pos] {
		if int(pos) < len(r.Tuples) && r.Tuples[pos].Tuple.KeyEqual(t) {
			return pos
		}
	}
	return -1
}

// Add inserts a derivation of a tuple. Duplicate tuples merge: their
// multiplicities add, and in tracked mode their provenance nodes merge
// under a + node via the supplied builder (nil in plain mode). Add panics
// on a view: a view shares its base's storage.
func (r *Relation) Add(b *provgraph.Builder, t AnnTuple) {
	r.mustOwn("Add")
	h := t.Tuple.KeyHash()
	if pos := r.find(h, t.Tuple); pos >= 0 {
		prev := &r.Tuples[pos]
		prev.Mult += t.Mult
		if b != nil {
			pn, tn := prev.Node(), t.Node()
			if pn != tn {
				prev.Prov = b.MergeDerivations([]provgraph.NodeID{pn, tn})
				prev.deferred = nil
			}
		}
		return
	}
	r.indexes.tuples.add(h)
	r.Tuples = append(r.Tuples, t)
}

// AddDistinct appends a tuple the caller knows is not in the relation:
// no tuple already there, nor any appended later, is KeyEqual to it. It
// hashes nothing; the tuple index takes the tuple in when a later find
// needs it. A duplicate appended this way is not merged and breaks the
// relation's invariant. AddDistinct panics on a view.
func (r *Relation) AddDistinct(t AnnTuple) {
	r.mustOwn("AddDistinct")
	r.Tuples = append(r.Tuples, t)
}

// mustOwn panics if the relation is a read-only view: a view shares its
// base's storage.
func (r *Relation) mustOwn(op string) {
	if r.view != "" {
		panic(fmt.Sprintf("eval: %s on a read-only %s view of %s", op, r.view, r.Schema))
	}
}

// Lookup returns the annotated tuple equal to t, if present.
func (r *Relation) Lookup(t *nested.Tuple) (AnnTuple, bool) {
	if pos := r.find(t.KeyHash(), t); pos >= 0 {
		return r.At(int(pos)), true
	}
	return AnnTuple{}, false
}

// ToBag expands the relation to a plain bag with duplicates.
func (r *Relation) ToBag() *nested.Bag {
	bag := nested.NewBag()
	for _, t := range r.Tuples {
		for i := 0; i < t.Mult; i++ {
			bag.Add(t.Tuple)
		}
	}
	return bag
}

// FromBag builds a relation from a plain bag (merging duplicates); the
// tuples carry no provenance.
func FromBag(schema *nested.Schema, bag *nested.Bag) *Relation {
	r := NewRelation(schema)
	for _, t := range bag.Tuples {
		r.Add(nil, AnnTuple{Tuple: t, Prov: provgraph.InvalidNode, Mult: 1})
	}
	return r
}

// Rebind returns a read-only view of the relation with every annotation
// mapped through fn, sharing the tuple index and probe indexes with the
// receiver by pointer. It exists for the workflow runner's eager state
// binding, which re-annotates large unchanged relations: whichever of the
// base and its views first looks a tuple up indexes the tuples once for
// all of them.
func (r *Relation) Rebind(fn func(AnnTuple) AnnTuple) *Relation {
	out := &Relation{Schema: r.Schema, view: "Rebind", indexes: r.shared()}
	out.Tuples = make([]AnnTuple, r.Len())
	for i := range out.Tuples {
		out.Tuples[i] = fn(r.At(i))
	}
	return out
}

// BindDeferred returns a read-only view of the relation whose tuple i is
// annotated by mk(base), base being the receiver's annotation of tuple i.
// mk runs on the tuple's first use in a derivation, at most once per tuple
// however often it is copied. The view shares the receiver's tuples, tuple
// index and probe indexes, so binding costs the same at any size. The
// workflow runner binds module state with it, one mk per invocation.
func (r *Relation) BindDeferred(mk func(base provgraph.NodeID) provgraph.NodeID) *Relation {
	return &Relation{
		Schema:   r.Schema,
		Tuples:   r.Tuples,
		view:     "BindDeferred",
		deferred: &deferredNodes{base: r.Tuples, mk: mk},
		indexes:  r.shared(),
	}
}

// Clone returns a shallow copy of the relation (tuples shared), owning its
// annotations: a view's clone holds the view's.
func (r *Relation) Clone() *Relation {
	c := &Relation{Schema: r.Schema, Tuples: make([]AnnTuple, r.Len())}
	for i := range c.Tuples {
		c.Tuples[i] = r.At(i)
	}
	return c
}

// Equal reports bag equality with another relation (schema ignored).
func (r *Relation) Equal(o *Relation) bool {
	if r.Card() != o.Card() || r.Len() != o.Len() {
		return false
	}
	for _, t := range r.Tuples {
		ot, ok := o.Lookup(t.Tuple)
		if !ok || ot.Mult != t.Mult {
			return false
		}
	}
	return true
}

// String renders the relation as an expanded bag.
func (r *Relation) String() string { return r.ToBag().String() }

// BagAnnotations carries the member annotations of nested bags: when a
// GROUP/COGROUP (or UDF) produces a bag nested inside a tuple, the bag's
// members keep their own provenance (Section 3.2: "tuples in the relations
// nested in t keep their original provenance"). The table is keyed by bag
// identity and consulted when a later FOREACH aggregates or flattens the
// bag. It must outlive a single program run — nested bags flow across
// module boundaries — so the workflow runner owns one per workflow run.
type BagAnnotations struct {
	m map[*nested.Bag][]AnnTuple
}

// NewBagAnnotations returns an empty annotation table.
func NewBagAnnotations() *BagAnnotations {
	return &BagAnnotations{m: make(map[*nested.Bag][]AnnTuple)}
}

// Annotate records the member annotations of a nested bag.
func (ba *BagAnnotations) Annotate(bag *nested.Bag, members []AnnTuple) {
	if ba != nil {
		ba.m[bag] = members
	}
}

// Members returns the annotations of a nested bag's tuples. For bags with
// no recorded annotation (external data), every member falls back to the
// owner tuple's provenance with multiplicity 1.
func (ba *BagAnnotations) Members(bag *nested.Bag, owner AnnTuple) []AnnTuple {
	if ba != nil {
		if m, ok := ba.m[bag]; ok {
			return m
		}
	}
	members := make([]AnnTuple, len(bag.Tuples))
	for i, t := range bag.Tuples {
		members[i] = AnnTuple{Tuple: t, Prov: owner.Node(), Mult: 1}
	}
	return members
}

// Env is the evaluation environment: named relations plus the shared
// nested-bag annotations.
type Env struct {
	Rels map[string]*Relation
	Bags *BagAnnotations
}

// NewEnv returns an empty environment with bag-annotation tracking.
func NewEnv() *Env {
	return &Env{Rels: make(map[string]*Relation), Bags: NewBagAnnotations()}
}

// Rel returns the named relation or an error.
func (e *Env) Rel(name string) (*Relation, error) {
	r, ok := e.Rels[name]
	if !ok {
		return nil, fmt.Errorf("eval: relation %q not bound", name)
	}
	return r, nil
}

// Set binds a relation name.
func (e *Env) Set(name string, r *Relation) { e.Rels[name] = r }
