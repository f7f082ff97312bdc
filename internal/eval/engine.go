package eval

import (
	"fmt"
	"sort"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
)

// Engine executes compiled plans against an environment. A nil Builder
// selects plain mode (no provenance); a non-nil Builder selects tracked
// mode and receives the provenance-graph nodes of Section 3.2.
type Engine struct {
	b *provgraph.Builder
	// contribs is evalAggItem's contribution buffer, reused for every
	// group: Aggregate reads the contributions and keeps none.
	contribs []provgraph.AggContribution
	// addAll sends every output through Relation.Add, distinct ones
	// included; tests set it to get the reference the distinct appends
	// are compared against.
	addAll bool
}

// New returns an engine. b may be nil for plain (untracked) evaluation.
func New(b *provgraph.Builder) *Engine { return &Engine{b: b} }

// Tracked reports whether the engine builds provenance.
func (e *Engine) Tracked() bool { return e.b != nil }

// Run evaluates every step of the plan in order, binding each target
// relation in the environment.
func (e *Engine) Run(plan *pig.Plan, env *Env) error {
	for _, step := range plan.Steps {
		rel, err := e.runOp(step.Op, env)
		if err != nil {
			return fmt.Errorf("eval: step %s: %w", step.Target, err)
		}
		env.Set(step.Target, rel)
	}
	return nil
}

func (e *Engine) runOp(op pig.Operator, env *Env) (*Relation, error) {
	switch o := op.(type) {
	case *pig.ForeachOp:
		return e.runForeach(o, env)
	case *pig.FilterOp:
		return e.runFilter(o, env)
	case *pig.GroupOp:
		return e.runGroup(o, env)
	case *pig.CogroupOp:
		return e.runCogroup(o, env)
	case *pig.JoinOp:
		return e.runJoin(o, env)
	case *pig.UnionOp:
		return e.runUnion(o, env)
	case *pig.DistinctOp:
		return e.runDistinct(o, env)
	case *pig.OrderOp:
		return e.runOrder(o, env)
	case *pig.LimitOp:
		return e.runLimit(o, env)
	case *pig.AliasOp:
		in, err := env.Rel(o.Input)
		if err != nil {
			return nil, err
		}
		return in.Clone(), nil
	default:
		return nil, fmt.Errorf("unsupported operator %T", op)
	}
}

// runFilter keeps tuples satisfying the condition; annotations are
// unchanged (FILTER creates no provenance nodes).
func (e *Engine) runFilter(o *pig.FilterOp, env *Env) (*Relation, error) {
	in, err := env.Rel(o.Input)
	if err != nil {
		return nil, err
	}
	out := NewRelation(o.In)
	for i := range in.Len() {
		t := in.At(i)
		v, err := o.Cond.Eval(t.Tuple)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			out.Add(e.b, t)
		}
	}
	return out, nil
}

// groupBucket accumulates one group during GROUP/COGROUP.
type groupBucket struct {
	key nested.Value
	// members holds, per input relation, the annotated member tuples.
	members [][]AnnTuple
}

// collectGroups buckets the tuples of several relations by key, preserving
// first-seen key order for deterministic output.
func collectGroups(rels []*Relation, keys [][]pig.Expr) ([]*groupBucket, error) {
	var order []*groupBucket
	var table keyTable
	for ri, rel := range rels {
		k := newKeyer(keys[ri])
		for i := range rel.Len() {
			t := rel.At(i)
			kv, err := k.eval(t.Tuple)
			if err != nil {
				return nil, err
			}
			h := kv.KeyHash()
			id := table.find(h, kv)
			if id < 0 {
				kv = k.own(kv)
				id = table.add(h, kv)
				order = append(order, &groupBucket{key: kv, members: make([][]AnnTuple, len(rels))})
			}
			bucket := order[id]
			bucket.members[ri] = append(bucket.members[ri], t)
		}
	}
	return order, nil
}

// runGroup implements GROUP: one result tuple per key, δ-annotated over the
// group members, whose nested bag keeps per-member provenance.
func (e *Engine) runGroup(o *pig.GroupOp, env *Env) (*Relation, error) {
	in, err := env.Rel(o.Input)
	if err != nil {
		return nil, err
	}
	buckets, err := collectGroups([]*Relation{in}, [][]pig.Expr{o.Keys})
	if err != nil {
		return nil, err
	}
	return e.buildGrouped(o.Out, buckets, env), nil
}

// runCogroup implements COGROUP over n inputs.
func (e *Engine) runCogroup(o *pig.CogroupOp, env *Env) (*Relation, error) {
	rels := make([]*Relation, len(o.InputNames))
	for i, name := range o.InputNames {
		r, err := env.Rel(name)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	buckets, err := collectGroups(rels, o.Keys)
	if err != nil {
		return nil, err
	}
	return e.buildGrouped(o.Out, buckets, env), nil
}

// buildGrouped materializes group tuples (key, bag1, ..., bagN) with δ
// provenance nodes and nested-bag annotations.
func (e *Engine) buildGrouped(out *nested.Schema, buckets []*groupBucket, env *Env) *Relation {
	res := &Relation{Schema: out, Tuples: make([]AnnTuple, 0, len(buckets))}
	for _, bkt := range buckets {
		fields := make([]nested.Value, 1, 1+len(bkt.members))
		fields[0] = bkt.key
		var provMembers []provgraph.NodeID
		for _, members := range bkt.members {
			bag := nested.NewBag()
			for _, m := range members {
				for i := 0; i < m.Mult; i++ {
					bag.Add(m.Tuple)
				}
				if e.b != nil {
					provMembers = append(provMembers, m.Node())
				}
			}
			env.Bags.Annotate(bag, members)
			fields = append(fields, nested.BagVal(bag))
		}
		prov := provgraph.InvalidNode
		if e.b != nil {
			prov = e.b.Group(provMembers...)
		}
		// One tuple per distinct key: the tuples are distinct.
		e.addDistinct(res, AnnTuple{Tuple: nested.NewTuple(fields...), Prov: prov, Mult: 1})
	}
	return res
}

// addDistinct appends an output tuple that is distinct by construction
// (see Relation.AddDistinct).
func (e *Engine) addDistinct(res *Relation, t AnnTuple) {
	if e.addAll {
		res.Add(e.b, t)
		return
	}
	res.AddDistinct(t)
}

// runJoin implements the n-way equality join: one ·-annotated derivation
// per combination of matching tuples (see joinTable for the algorithm).
func (e *Engine) runJoin(o *pig.JoinOp, env *Env) (*Relation, error) {
	rels := make([]*Relation, len(o.InputNames))
	for i, name := range o.InputNames {
		r, err := env.Rel(name)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	res := NewRelation(o.Out)
	jt, err := buildJoinTable(rels, o.Keys)
	if err != nil || jt == nil {
		return res, err
	}
	distinct := true
	jt.emit(func(combo []AnnTuple) { distinct = e.addJoined(res, rels, combo, distinct) })
	return res, nil
}

// addJoined adds one combination of matching tuples (one per input, in
// input order) to the join result. Deferred annotations resolve in input
// order, as the provenance node ids depend on it.
//
// Combinations of distinct input tuples concatenate to distinct tuples as
// long as every part has its input schema's arity, so while distinct holds
// the result is appended unhashed. The first combination with a part of
// another arity could coincide with an earlier one, and so could any
// later one with it; from there on every combination goes through Add,
// which indexes what was appended before. addJoined returns distinct for
// the next combination.
func (e *Engine) addJoined(res *Relation, rels []*Relation, combo []AnnTuple, distinct bool) bool {
	arity, mult := 0, 1
	for i, t := range combo {
		arity += len(t.Tuple.Fields)
		mult *= t.Mult
		distinct = distinct && rels[i].Schema != nil && len(t.Tuple.Fields) == rels[i].Schema.Arity()
	}
	fields := make([]nested.Value, 0, arity)
	for _, t := range combo {
		fields = append(fields, t.Tuple.Fields...)
	}
	prov := provgraph.InvalidNode
	if e.b != nil {
		if len(combo) == 2 {
			prov = e.b.Join(combo[0].Node(), combo[1].Node())
		} else {
			provs := make([]provgraph.NodeID, len(combo))
			for i, t := range combo {
				provs[i] = t.Node()
			}
			prov = e.b.Product(provs...)
		}
	}
	t := AnnTuple{Tuple: nested.NewTuple(fields...), Prov: prov, Mult: mult}
	if distinct {
		e.addDistinct(res, t)
	} else {
		res.Add(e.b, t)
	}
	return distinct
}

// runUnion merges inputs; equal tuples appearing in several inputs add
// their annotations (+) and multiplicities.
func (e *Engine) runUnion(o *pig.UnionOp, env *Env) (*Relation, error) {
	res := NewRelation(o.Out)
	for _, name := range o.InputNames {
		in, err := env.Rel(name)
		if err != nil {
			return nil, err
		}
		for i := range in.Len() {
			res.Add(e.b, in.At(i))
		}
	}
	return res, nil
}

// runDistinct emits each distinct tuple once, δ-annotated.
func (e *Engine) runDistinct(o *pig.DistinctOp, env *Env) (*Relation, error) {
	in, err := env.Rel(o.Input)
	if err != nil {
		return nil, err
	}
	res := NewRelation(o.In)
	for i := range in.Len() {
		t := in.At(i)
		prov := t.Prov
		if e.b != nil {
			prov = e.b.Group(t.Node())
		}
		res.Add(e.b, AnnTuple{Tuple: t.Tuple, Prov: prov, Mult: 1})
	}
	return res, nil
}

// runOrder sorts the relation; ORDER is a provenance-free post-processing
// step (end of Section 3.2), so annotations pass through untouched.
func (e *Engine) runOrder(o *pig.OrderOp, env *Env) (*Relation, error) {
	in, err := env.Rel(o.Input)
	if err != nil {
		return nil, err
	}
	res := &Relation{Schema: in.Schema, Tuples: make([]AnnTuple, in.Len())}
	for i := range res.Tuples {
		res.Tuples[i] = in.At(i)
	}
	var evalErr error
	sort.SliceStable(res.Tuples, func(i, j int) bool {
		for k, key := range o.Keys {
			vi, err := key.Eval(res.Tuples[i].Tuple)
			if err != nil {
				evalErr = err
				return false
			}
			vj, err := key.Eval(res.Tuples[j].Tuple)
			if err != nil {
				evalErr = err
				return false
			}
			c := vi.Compare(vj)
			if c != 0 {
				if o.Desc[k] {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return res, nil
}

// runLimit keeps the first n tuples (counting multiplicity) in relation
// order.
func (e *Engine) runLimit(o *pig.LimitOp, env *Env) (*Relation, error) {
	in, err := env.Rel(o.Input)
	if err != nil {
		return nil, err
	}
	res := NewRelation(o.In)
	remaining := o.N
	for i := range in.Len() {
		t := in.At(i)
		if remaining <= 0 {
			break
		}
		take := t.Mult
		if int64(take) > remaining {
			take = int(remaining)
		}
		nt := t // keep the annotation (including deferred state nodes)
		nt.Mult = take
		res.Add(e.b, nt)
		remaining -= int64(take)
	}
	return res, nil
}
