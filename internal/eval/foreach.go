package eval

import (
	"fmt"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
	"lipstick/internal/semiring"
)

// runForeach evaluates FOREACH ... GENERATE. Non-flatten FOREACH produces
// one result tuple per input tuple, merged per distinct result under a
// single + node (the projection rule of Section 3.2); aggregation items
// additionally build ⊗/aggregate v-nodes; FLATTEN items cross the input
// tuple with nested-bag members under · nodes.
func (e *Engine) runForeach(o *pig.ForeachOp, env *Env) (*Relation, error) {
	in, err := env.Rel(o.Input)
	if err != nil {
		return nil, err
	}
	if o.HasFlatten {
		return e.runForeachFlatten(o, in, env)
	}

	// deriv accumulates the contributions to one distinct result tuple.
	type deriv struct {
		tuple      *nested.Tuple
		sources    []provgraph.NodeID
		valueNodes []provgraph.NodeID
		mult       int
	}
	var derivs []*deriv
	var distinct keyTable // result tuple -> position in derivs

	for ti := range in.Len() {
		t := in.At(ti)
		fields := make([]nested.Value, 0, len(o.Items))
		var valueNodes []provgraph.NodeID
		for i := range o.Items {
			item := &o.Items[i]
			switch item.Kind {
			case pig.ItemExpr:
				v, err := item.Expr.Eval(t.Tuple)
				if err != nil {
					return nil, err
				}
				fields = append(fields, v)
			case pig.ItemStar:
				fields = append(fields, t.Tuple.Fields...)
			case pig.ItemAgg:
				v, node, err := e.evalAggItem(item, t, env)
				if err != nil {
					return nil, err
				}
				fields = append(fields, v)
				if node != provgraph.InvalidNode {
					valueNodes = append(valueNodes, node)
				}
			case pig.ItemUDF:
				v, node, err := e.evalUDFItem(item, t, env)
				if err != nil {
					return nil, err
				}
				fields = append(fields, v)
				if node != provgraph.InvalidNode {
					valueNodes = append(valueNodes, node)
				}
			default:
				return nil, fmt.Errorf("unexpected item kind %d in non-flatten FOREACH", item.Kind)
			}
		}
		tuple := nested.NewTuple(fields...)
		key := nested.TupleVal(tuple)
		h := key.KeyHash()
		id := distinct.find(h, key)
		if id < 0 {
			id = distinct.add(h, key)
			derivs = append(derivs, &deriv{tuple: tuple})
		}
		d := derivs[id]
		d.sources = append(d.sources, t.Node())
		d.valueNodes = append(d.valueNodes, valueNodes...)
		d.mult += t.Mult
	}

	res := NewRelation(o.Out)
	for _, d := range derivs {
		prov := provgraph.InvalidNode
		if e.b != nil {
			prov = e.b.Project(d.sources...)
			for _, vn := range d.valueNodes {
				e.b.AddEdge(vn, prov)
			}
		}
		res.Add(e.b, AnnTuple{Tuple: d.tuple, Prov: prov, Mult: d.mult})
	}
	return res, nil
}

// locateBag walks the item's BagPath on the tuple and returns the bag.
func locateBag(path []int, t *nested.Tuple) (*nested.Bag, error) {
	cur := t
	for i, idx := range path {
		if idx >= len(cur.Fields) {
			return nil, fmt.Errorf("bag path index %d out of range", idx)
		}
		v := cur.Fields[idx]
		if i == len(path)-1 {
			if v.Kind() != nested.KindBag {
				return nil, fmt.Errorf("bag path ends at %s value", v.Kind())
			}
			return v.AsBag(), nil
		}
		if v.Kind() != nested.KindTuple {
			return nil, fmt.Errorf("bag path traverses %s value", v.Kind())
		}
		cur = v.AsTuple()
	}
	return nil, fmt.Errorf("empty bag path")
}

// evalAggItem computes one aggregate over the nested bag of the current
// tuple, returning the aggregated value and (in tracked mode) the
// aggregate v-node with its ⊗ contributions.
func (e *Engine) evalAggItem(item *pig.Item, owner AnnTuple, env *Env) (nested.Value, provgraph.NodeID, error) {
	bag, err := locateBag(item.BagPath, owner.Tuple)
	if err != nil {
		return nested.Null(), provgraph.InvalidNode, err
	}
	members := env.Bags.Members(bag, owner)

	sum, count := 0.0, 0
	lo, hi := 0.0, 0.0
	first := true
	contribs := e.contribs[:0]
	for _, m := range members {
		var raw nested.Value
		if item.InnerIdx >= 0 {
			if item.InnerIdx >= m.Tuple.Arity() {
				return nested.Null(), provgraph.InvalidNode, fmt.Errorf("aggregate field $%d out of range", item.InnerIdx)
			}
			raw = m.Tuple.Fields[item.InnerIdx]
		} else {
			raw = nested.Int(1) // COUNT counts tuples
		}
		if raw.IsNull() {
			continue // aggregates ignore nulls
		}
		v, ok := raw.Numeric()
		if !ok {
			return nested.Null(), provgraph.InvalidNode, fmt.Errorf("aggregate over non-numeric %s", raw.Kind())
		}
		count += m.Mult
		sum += float64(m.Mult) * v
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
		if e.b != nil {
			contribs = append(contribs, provgraph.AggContribution{TupleProv: m.Node(), Value: raw})
		}
	}

	value := aggResult(item.AggOp, item.Types[0].Kind, sum, count, lo, hi, first)
	node := provgraph.InvalidNode
	if e.b != nil {
		node = e.b.Aggregate(item.AggOp.String(), contribs, value)
	}
	e.contribs = contribs
	return value, node, nil
}

// AggregateBag folds one field of a plain bag (duplicates explicit) with
// the given operation — the value-level semantics of FOREACH aggregation,
// shared with the NRC translation. innerIdx < 0 counts tuples.
func AggregateBag(op semiring.AggOp, bag *nested.Bag, innerIdx int, kind nested.Kind) (nested.Value, error) {
	sum, count := 0.0, 0
	lo, hi := 0.0, 0.0
	first := true
	for _, t := range bag.Tuples {
		var raw nested.Value
		if innerIdx >= 0 {
			if innerIdx >= t.Arity() {
				return nested.Null(), fmt.Errorf("aggregate field $%d out of range", innerIdx)
			}
			raw = t.Fields[innerIdx]
		} else {
			raw = nested.Int(1)
		}
		if raw.IsNull() {
			continue
		}
		v, ok := raw.Numeric()
		if !ok {
			return nested.Null(), fmt.Errorf("aggregate over non-numeric %s", raw.Kind())
		}
		count++
		sum += v
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return aggResult(op, kind, sum, count, lo, hi, first), nil
}

// aggResult folds the accumulators into the typed aggregate value.
// empty reports whether no non-null contribution was seen: COUNT yields 0,
// every other aggregate yields null (there is nothing to aggregate).
func aggResult(op semiring.AggOp, kind nested.Kind, sum float64, count int, lo, hi float64, empty bool) nested.Value {
	if op == semiring.AggCount {
		return nested.Int(int64(count))
	}
	if empty {
		return nested.Null()
	}
	mk := func(f float64) nested.Value {
		if kind == nested.KindInt {
			return nested.Int(int64(f))
		}
		return nested.Float(f)
	}
	switch op {
	case semiring.AggSum:
		return mk(sum)
	case semiring.AggMin:
		return mk(lo)
	case semiring.AggMax:
		return mk(hi)
	case semiring.AggAvg:
		return nested.Float(sum / float64(count))
	default:
		return nested.Null()
	}
}

// evalUDFItem invokes a black box, returning its result bag as a value and
// (tracked) the BB v-node; the returned bag's members are annotated with
// the BB node so later aggregation/flattening stays connected.
func (e *Engine) evalUDFItem(item *pig.Item, owner AnnTuple, env *Env) (nested.Value, provgraph.NodeID, error) {
	args := make([]nested.Value, len(item.Args))
	for i, a := range item.Args {
		v, err := a.Eval(owner.Tuple)
		if err != nil {
			return nested.Null(), provgraph.InvalidNode, err
		}
		args[i] = v
	}
	bag, err := item.UDF.Fn(args)
	if err != nil {
		return nested.Null(), provgraph.InvalidNode, fmt.Errorf("UDF %s: %w", item.UDF.Name, err)
	}
	if err := item.UDF.OutSchema.ValidateBag(bag); err != nil {
		return nested.Null(), provgraph.InvalidNode, fmt.Errorf("UDF %s output: %w", item.UDF.Name, err)
	}
	node := provgraph.InvalidNode
	if e.b != nil {
		node = e.b.BlackBox(item.UDF.Name, true, nested.BagVal(bag), owner.Node())
		members := make([]AnnTuple, len(bag.Tuples))
		for i, t := range bag.Tuples {
			members[i] = AnnTuple{Tuple: t, Prov: node, Mult: 1}
		}
		env.Bags.Annotate(bag, members)
	}
	return nested.BagVal(bag), node, nil
}

// flatPart is one flattened item's expansion for the current input tuple:
// each alternative contributes a slice of fields, an optional member
// p-node, and a multiplicity.
type flatPart struct {
	alternatives []flatAlt
	// bbNode is the black-box v-node for UDF flattens (wired into every
	// result tuple of this input tuple).
	bbNode provgraph.NodeID
}

type flatAlt struct {
	fields []nested.Value
	prov   provgraph.NodeID
	mult   int
}

// runForeachFlatten evaluates a FOREACH with at least one FLATTEN item:
// the input tuple is crossed with the members of each flattened bag; each
// result tuple is ·-derived from the input tuple and the members
// (Section 3.2's FLATTEN provenance), with UDF results contributing their
// black-box node.
func (e *Engine) runForeachFlatten(o *pig.ForeachOp, in *Relation, env *Env) (*Relation, error) {
	res := NewRelation(o.Out)
	for ti := range in.Len() {
		t := in.At(ti)
		parts := make([]flatPart, len(o.Items))
		for i := range o.Items {
			item := &o.Items[i]
			part := flatPart{bbNode: provgraph.InvalidNode}
			switch item.Kind {
			case pig.ItemExpr:
				v, err := item.Expr.Eval(t.Tuple)
				if err != nil {
					return nil, err
				}
				part.alternatives = []flatAlt{{fields: []nested.Value{v}, prov: provgraph.InvalidNode, mult: 1}}
			case pig.ItemStar:
				part.alternatives = []flatAlt{{fields: t.Tuple.Fields, prov: provgraph.InvalidNode, mult: 1}}
			case pig.ItemUDF:
				v, node, err := e.evalUDFItem(item, t, env)
				if err != nil {
					return nil, err
				}
				part.alternatives = []flatAlt{{fields: []nested.Value{v}, prov: provgraph.InvalidNode, mult: 1}}
				part.bbNode = node
			case pig.ItemFlattenBag:
				bag, err := locateBag(item.BagPath, t.Tuple)
				if err != nil {
					return nil, err
				}
				for _, m := range env.Bags.Members(bag, t) {
					part.alternatives = append(part.alternatives, flatAlt{fields: m.Tuple.Fields, prov: m.Node(), mult: m.Mult})
				}
			case pig.ItemFlattenUDF:
				args := make([]nested.Value, len(item.Args))
				for ai, a := range item.Args {
					v, err := a.Eval(t.Tuple)
					if err != nil {
						return nil, err
					}
					args[ai] = v
				}
				bag, err := item.UDF.Fn(args)
				if err != nil {
					return nil, fmt.Errorf("UDF %s: %w", item.UDF.Name, err)
				}
				if err := item.UDF.OutSchema.ValidateBag(bag); err != nil {
					return nil, fmt.Errorf("UDF %s output: %w", item.UDF.Name, err)
				}
				if e.b != nil {
					part.bbNode = e.b.BlackBox(item.UDF.Name, true, nested.BagVal(bag), t.Node())
				}
				for _, m := range bag.Tuples {
					part.alternatives = append(part.alternatives, flatAlt{fields: m.Fields, prov: provgraph.InvalidNode, mult: 1})
				}
			default:
				return nil, fmt.Errorf("unexpected item kind %d in flatten FOREACH", item.Kind)
			}
			parts[i] = part
		}
		e.expandFlatten(res, t, parts, 0, nil, nil, 1)
	}
	return res, nil
}

// expandFlatten recursively emits the cross product of part alternatives.
func (e *Engine) expandFlatten(res *Relation, owner AnnTuple, parts []flatPart, idx int, fields []nested.Value, memberProvs []provgraph.NodeID, mult int) {
	if idx == len(parts) {
		prov := provgraph.InvalidNode
		if e.b != nil {
			if len(memberProvs) > 0 {
				prov = e.b.Product(append([]provgraph.NodeID{owner.Node()}, memberProvs...)...)
			} else {
				prov = e.b.Project(owner.Node())
			}
			for _, p := range parts {
				if p.bbNode != provgraph.InvalidNode {
					e.b.AddEdge(p.bbNode, prov)
				}
			}
		}
		res.Add(e.b, AnnTuple{
			Tuple: nested.NewTuple(append([]nested.Value(nil), fields...)...),
			Prov:  prov,
			Mult:  owner.Mult * mult,
		})
		return
	}
	for _, alt := range parts[idx].alternatives {
		nf := append(fields, alt.fields...)
		np := memberProvs
		if alt.prov != provgraph.InvalidNode {
			np = append(append([]provgraph.NodeID(nil), memberProvs...), alt.prov)
		}
		e.expandFlatten(res, owner, parts, idx+1, nf, np, mult*alt.mult)
	}
}
