package eval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
)

// The string-keyed JOIN and grouping the typed keying replaced, kept
// verbatim as differential references: every key is rendered with
// nested.Value.Key() and bucketed in a map[string].

// refRelation is Relation's old dedupe index: canonical tuple key ->
// position.
type refRelation struct {
	tuples []AnnTuple
	index  map[string]int
}

func (r *refRelation) add(b *provgraph.Builder, t AnnTuple) {
	key := t.Tuple.Key()
	if pos, ok := r.index[key]; ok {
		prev := &r.tuples[pos]
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
	r.index[key] = len(r.tuples)
	r.tuples = append(r.tuples, t)
}

func refEvalKey(keys []pig.Expr, t *nested.Tuple) (nested.Value, error) {
	if len(keys) == 1 {
		return keys[0].Eval(t)
	}
	vals := make([]nested.Value, len(keys))
	for i, k := range keys {
		v, err := k.Eval(t)
		if err != nil {
			return nested.Null(), err
		}
		vals[i] = v
	}
	return nested.TupleVal(nested.NewTuple(vals...)), nil
}

func refCollectGroups(rels []*Relation, keys [][]pig.Expr) ([]*groupBucket, error) {
	var order []*groupBucket
	index := map[string]*groupBucket{}
	for ri, rel := range rels {
		for i := range rel.Len() {
			t := rel.At(i)
			kv, err := refEvalKey(keys[ri], t.Tuple)
			if err != nil {
				return nil, err
			}
			kk := kv.Key()
			bucket, ok := index[kk]
			if !ok {
				bucket = &groupBucket{key: kv, members: make([][]AnnTuple, len(rels))}
				index[kk] = bucket
				order = append(order, bucket)
			}
			bucket.members[ri] = append(bucket.members[ri], t)
		}
	}
	return order, nil
}

func refJoin(e *Engine, o *pig.JoinOp, env *Env) (*refRelation, error) {
	rels := make([]*Relation, len(o.InputNames))
	for i, name := range o.InputNames {
		r, err := env.Rel(name)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	type entry struct{ tuples []AnnTuple }
	maps := make([]map[string]*entry, len(rels))
	for i, rel := range rels {
		maps[i] = make(map[string]*entry, rel.Len())
		for pos := range rel.Len() {
			t := rel.At(pos)
			kv, err := refEvalKey(o.Keys[i], t.Tuple)
			if err != nil {
				return nil, err
			}
			kk := kv.Key()
			en, ok := maps[i][kk]
			if !ok {
				en = &entry{}
				maps[i][kk] = en
			}
			en.tuples = append(en.tuples, t)
		}
	}
	res := &refRelation{index: map[string]int{}}
	var keyOrder []string
	seen := map[string]bool{}
	for i := range rels[0].Len() {
		kv, err := refEvalKey(o.Keys[0], rels[0].At(i).Tuple)
		if err != nil {
			return nil, err
		}
		kk := kv.Key()
		if !seen[kk] {
			seen[kk] = true
			keyOrder = append(keyOrder, kk)
		}
	}
	for _, kk := range keyOrder {
		groups := make([][]AnnTuple, len(rels))
		ok := true
		for i := range rels {
			en := maps[i][kk]
			if en == nil {
				ok = false
				break
			}
			groups[i] = en.tuples
		}
		if ok {
			refCrossJoin(e, res, groups, nil)
		}
	}
	return res, nil
}

func refCrossJoin(e *Engine, res *refRelation, groups [][]AnnTuple, acc []AnnTuple) {
	if len(acc) == len(groups) {
		fields := make([]nested.Value, 0)
		mult := 1
		provs := make([]provgraph.NodeID, 0, len(acc))
		for _, t := range acc {
			fields = append(fields, t.Tuple.Fields...)
			mult *= t.Mult
			provs = append(provs, t.Node())
		}
		prov := provgraph.InvalidNode
		if e.b != nil {
			if len(provs) == 2 {
				prov = e.b.Join(provs[0], provs[1])
			} else {
				prov = e.b.Product(provs...)
			}
		}
		res.add(e.b, AnnTuple{Tuple: nested.NewTuple(fields...), Prov: prov, Mult: mult})
		return
	}
	for _, t := range groups[len(acc)] {
		refCrossJoin(e, res, groups, append(acc, t))
	}
}

// diffSchema is every differential input's schema: k is a scalar key that
// mixes kinds, b a bag-valued key, v a small int that makes duplicate
// tuples (merged on insertion) common.
func diffSchema() *nested.Schema {
	elem := nested.NewSchema(nested.Field{Name: "x", Type: nested.ScalarType(nested.KindFloat)})
	return nested.NewSchema(
		nested.Field{Name: "k", Type: nested.ScalarType(nested.KindFloat)},
		nested.Field{Name: "b", Type: nested.BagType(elem)},
		nested.Field{Name: "v", Type: nested.ScalarType(nested.KindInt)},
	)
}

// diffKeys are the scalar keys the generator draws from: Int(1) against
// Float(1.0), +0 against -0, NaN, null and a string.
var diffKeys = []nested.Value{
	nested.Int(1), nested.Float(1), nested.Float(0), nested.Float(math.Copysign(0, -1)),
	nested.Float(math.NaN()), nested.Null(), nested.Str("1"), nested.Int(2),
}

// diffBag draws a bag-valued key; permuted and mixed-kind members are
// deliberate.
func diffBag(r *rand.Rand) nested.Value {
	tup := func(v nested.Value) *nested.Tuple { return nested.NewTuple(v) }
	switch r.Intn(5) {
	case 0:
		return nested.BagVal(nested.NewBag())
	case 1:
		return nested.BagVal(nested.NewBag(tup(nested.Int(1)), tup(nested.Int(2))))
	case 2:
		return nested.BagVal(nested.NewBag(tup(nested.Int(2)), tup(nested.Int(1))))
	case 3:
		return nested.BagVal(nested.NewBag(tup(nested.Int(1)), tup(nested.Float(1))))
	default:
		return nested.BagVal(nested.NewBag(tup(nested.Float(1)), tup(nested.Int(1))))
	}
}

// diffRelation generates n tuples (fewer distinct ones: duplicates merge)
// with base-tuple provenance from b (nil: plain). With deferred set the
// relation is bound as workflow state is, so the join resolves its nodes.
func diffRelation(r *rand.Rand, b *provgraph.Builder, name string, n int, deferred bool) *Relation {
	rel := NewRelation(diffSchema())
	addDiffTuples(r, b, rel, name, 0, n)
	if deferred && b != nil {
		rel = bindProject(b, rel)
	}
	return rel
}

// addDiffTuples adds n generated tuples to rel, their base nodes (tracked)
// labelled name<from>, name<from+1>, ....
func addDiffTuples(r *rand.Rand, b *provgraph.Builder, rel *Relation, name string, from, n int) {
	for i := from; i < from+n; i++ {
		t := nested.NewTuple(diffKeys[r.Intn(len(diffKeys))], diffBag(r), nested.Int(int64(r.Intn(3))))
		prov := provgraph.InvalidNode
		if b != nil {
			prov = b.BaseTuple(fmt.Sprintf("%s%d", name, i))
		}
		rel.Add(b, AnnTuple{Tuple: t, Prov: prov, Mult: 1 + r.Intn(2)})
	}
}

// bindProject binds rel as workflow state is bound, each tuple's deferred
// node a projection of its base (plain: the base itself).
func bindProject(b *provgraph.Builder, rel *Relation) *Relation {
	return rel.BindDeferred(func(base provgraph.NodeID) provgraph.NodeID {
		if b == nil {
			return base
		}
		return b.Project(base)
	})
}

// diffRun is one side of a differential comparison: an environment
// generated from seed, and the events its builder records.
type diffRun struct {
	env    *Env
	b      *provgraph.Builder
	events []provgraph.Event
}

func newDiffRun(seed int64, tracked bool, sizes []int, deferred int) *diffRun {
	d := &diffRun{env: NewEnv()}
	if tracked {
		d.b = provgraph.NewBuilder()
		d.b.G.SetEventSink(func(ev provgraph.Event) { d.events = append(d.events, ev) })
	}
	r := rand.New(rand.NewSource(seed))
	for i, n := range sizes {
		name := string(rune('A' + i))
		d.env.Set(name, diffRelation(r, d.b, name, n, i == deferred))
	}
	return d
}

// joinPrograms cover 2- and 3-way joins on scalar, composite and
// bag-valued keys.
var joinPrograms = []struct {
	src    string
	inputs int
}{
	{"J = JOIN A BY k, B BY k;", 2},
	{"J = JOIN A BY (k, v), B BY (k, v);", 2},
	{"J = JOIN A BY b, B BY b;", 2},
	{"J = JOIN A BY (b, k), B BY (b, k);", 2},
	{"J = JOIN A BY k, B BY k, C BY k;", 3},
	{"J = JOIN A BY (k, v), B BY (k, v), C BY (k, v);", 3},
}

// diffSizes returns input sizes for case c: the smallest input in every
// position, an empty input in every position, and random sizes.
func diffSizes(r *rand.Rand, inputs, c int) []int {
	sizes := make([]int, inputs)
	for i := range sizes {
		sizes[i] = 4 + r.Intn(20)
	}
	switch pos := c % (2*inputs + 1); {
	case pos < inputs:
		sizes[pos] = 1 + r.Intn(3)
	case pos < 2*inputs:
		sizes[pos-inputs] = 0
	}
	return sizes
}

func compileDiff(t *testing.T, src string, inputs int) *pig.Plan {
	t.Helper()
	schemas := nested.RelationSchemas{}
	for i := 0; i < inputs; i++ {
		schemas[string(rune('A'+i))] = diffSchema()
	}
	plan, err := pig.CompileSource(src, schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// sameAnnTuples requires identical tuples (by canonical key), order,
// multiplicities and provenance ids.
func sameAnnTuples(t *testing.T, what string, got, want []AnnTuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Tuple.Key() != w.Tuple.Key() || g.Mult != w.Mult || g.Node() != w.Node() {
			t.Fatalf("%s: tuple %d = %v×%d prov %d, reference %v×%d prov %d",
				what, i, g.Tuple, g.Mult, g.Node(), w.Tuple, w.Mult, w.Node())
		}
	}
}

// TestJoinMatchesStringKeyedReference: on seeded random inputs the typed,
// build-the-smallest-side join produces exactly the string-keyed join's
// output tuples, order, multiplicities and provenance ids, and its builder
// records exactly the same event stream.
func TestJoinMatchesStringKeyedReference(t *testing.T) {
	for pi, p := range joinPrograms {
		plan := compileDiff(t, p.src, p.inputs)
		op := plan.Steps[0].Op.(*pig.JoinOp)
		for c := 0; c < 40; c++ {
			seed := int64(1000*pi + c)
			sizes := diffSizes(rand.New(rand.NewSource(seed)), p.inputs, c)
			for _, tracked := range []bool{false, true} {
				deferred := c % (p.inputs + 1) // == p.inputs: no deferred input
				got, want := newDiffRun(seed, tracked, sizes, deferred), newDiffRun(seed, tracked, sizes, deferred)
				res, err := New(got.b).runJoin(op, got.env)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := refJoin(New(want.b), op, want.env)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%q seed %d sizes %v tracked %v", p.src, seed, sizes, tracked)
				sameAnnTuples(t, what, res.Tuples, ref.tuples)
				if !reflect.DeepEqual(got.events, want.events) {
					t.Fatalf("%s: event streams differ (%d vs %d events)", what, len(got.events), len(want.events))
				}
			}
		}
	}
}

// TestGroupsMatchStringKeyedReference: GROUP/COGROUP bucketing produces
// the string-keyed reference's buckets, in the same order, with the same
// keys and members.
func TestGroupsMatchStringKeyedReference(t *testing.T) {
	programs := []struct {
		src    string
		inputs int
	}{
		{"G = GROUP A BY k;", 1},
		{"G = GROUP A BY b;", 1},
		{"G = GROUP A BY (k, v);", 1},
		{"G = COGROUP A BY k, B BY k, C BY k;", 3},
		{"G = COGROUP A BY (b, v), B BY (b, v);", 2},
	}
	for pi, p := range programs {
		plan := compileDiff(t, p.src, p.inputs)
		var rels []*Relation
		var keys [][]pig.Expr
		for c := 0; c < 40; c++ {
			seed := int64(1000*pi + c)
			run := newDiffRun(seed, true, diffSizes(rand.New(rand.NewSource(seed)), p.inputs, c), -1)
			switch o := plan.Steps[0].Op.(type) {
			case *pig.GroupOp:
				rels, keys = []*Relation{run.env.Rels["A"]}, [][]pig.Expr{o.Keys}
			case *pig.CogroupOp:
				rels, keys = nil, o.Keys
				for _, name := range o.InputNames {
					rels = append(rels, run.env.Rels[name])
				}
			}
			got, err := collectGroups(rels, keys)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCollectGroups(rels, keys)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%q seed %d", p.src, seed)
			if len(got) != len(want) {
				t.Fatalf("%s: %d groups, reference %d", what, len(got), len(want))
			}
			for g := range got {
				if got[g].key.Key() != want[g].key.Key() {
					t.Fatalf("%s: group %d key %v, reference %v", what, g, got[g].key, want[g].key)
				}
				for i := range got[g].members {
					sameAnnTuples(t, fmt.Sprintf("%s group %d input %d", what, g, i), got[g].members[i], want[g].members[i])
				}
			}
		}
	}
}

// TestRelationDedupeMatchesStringKeyedReference: Relation.Add merges
// exactly the tuples the string-keyed index merged, with the same merge
// provenance, and Lookup finds every tuple.
func TestRelationDedupeMatchesStringKeyedReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		got, want := provgraph.NewBuilder(), provgraph.NewBuilder()
		var gotEvents, wantEvents []provgraph.Event
		got.G.SetEventSink(func(ev provgraph.Event) { gotEvents = append(gotEvents, ev) })
		want.G.SetEventSink(func(ev provgraph.Event) { wantEvents = append(wantEvents, ev) })
		rel := NewRelation(diffSchema())
		ref := &refRelation{index: map[string]int{}}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			tup := nested.NewTuple(diffKeys[r.Intn(len(diffKeys))], diffBag(r), nested.Int(int64(r.Intn(2))))
			label := fmt.Sprintf("t%d", i)
			rel.Add(got, AnnTuple{Tuple: tup, Prov: got.BaseTuple(label), Mult: 1})
			ref.add(want, AnnTuple{Tuple: tup, Prov: want.BaseTuple(label), Mult: 1})
		}
		sameAnnTuples(t, fmt.Sprintf("seed %d", seed), rel.Tuples, ref.tuples)
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("seed %d: event streams differ", seed)
		}
		for _, at := range ref.tuples {
			if found, ok := rel.Lookup(at.Tuple); !ok || found.Tuple != at.Tuple {
				t.Fatalf("seed %d: Lookup(%v) missed", seed, at.Tuple)
			}
		}
	}
}

// probeCase is one TestProbeIndexMatchesScan scenario: a join run three
// times over the same relations. before, when set, runs on each side's
// environment before every round, drawing from a generator seeded alike.
type probeCase struct {
	name     string
	src      string
	sizes    []int
	deferred int // input bound as a BindDeferred view from the start, or -1
	before   func(round int, env *Env, b *provgraph.Builder, r *rand.Rand)
	// indexed names the inputs the last round must have answered from a
	// probe index covering every tuple; stale, those it must have scanned
	// because their base's index covers more tuples than they hold.
	indexed, stale []string
}

// growA adds five tuples to input A before rounds 1 and 2.
func growA(round int, env *Env, b *provgraph.Builder, r *rand.Rand) {
	if round > 0 {
		a := env.Rels["A"]
		addDiffTuples(r, b, a, "A+", 10*round, 5)
	}
}

// viewAfterIndexing rebinds A as a view before round 2, after rounds 0
// and 1 indexed its base.
func viewAfterIndexing(round int, env *Env, b *provgraph.Builder, _ *rand.Rand) {
	if round == 2 {
		env.Set("A", bindProject(b, env.Rels["A"]))
	}
}

// staleView binds a view V of A, then grows A; rounds 0 and 1 index the
// grown A, and round 2 probes V, which holds fewer tuples than the index
// covers.
func staleView(round int, env *Env, b *provgraph.Builder, r *rand.Rand) {
	switch round {
	case 0:
		env.Set("V", bindProject(b, env.Rels["A"]))
		addDiffTuples(r, b, env.Rels["A"], "A+", 0, 6)
	case 2:
		env.Set("A", env.Rels["V"])
	}
}

var probeCases = []probeCase{
	{name: "indexed first input", src: "J = JOIN A BY k, B BY k;", sizes: []int{24, 3}, deferred: 0, indexed: []string{"A"}},
	{name: "indexed second input", src: "J = JOIN A BY k, B BY k;", sizes: []int{3, 24}, deferred: 1, indexed: []string{"B"}},
	{name: "composite keys", src: "J = JOIN A BY (k, v), B BY (k, v);", sizes: []int{24, 4}, deferred: -1, indexed: []string{"A"}},
	{name: "bag-valued composite keys", src: "J = JOIN A BY (b, k), B BY (b, k);", sizes: []int{5, 24}, deferred: 1, indexed: []string{"B"}},
	{name: "3-way", src: "J = JOIN A BY k, B BY k, C BY k;", sizes: []int{15, 2, 12}, deferred: 2, indexed: []string{"A", "C"}},
	{name: "3-way composite", src: "J = JOIN A BY (k, v), B BY (k, v), C BY (k, v);", sizes: []int{12, 14, 3}, deferred: -1, indexed: []string{"A", "B"}},
	{name: "empty build side", src: "J = JOIN A BY k, B BY k;", sizes: []int{24, 0}, deferred: 0},
	{name: "grown by Add between probes", src: "J = JOIN A BY k, B BY k;", sizes: []int{20, 3}, deferred: -1, before: growA, indexed: []string{"A"}},
	{name: "view probed after its base was indexed", src: "J = JOIN A BY k, B BY k;", sizes: []int{20, 3}, deferred: -1, before: viewAfterIndexing, indexed: []string{"A"}},
	{name: "stale view scans", src: "J = JOIN A BY k, B BY k;", sizes: []int{20, 3}, deferred: -1, before: staleView, stale: []string{"A"}},
}

// indexCovers reports whether rel has a probe index covering exactly
// (covers) or more than (stale) its tuples.
func indexCovers(rel *Relation, stale bool) bool {
	if rel.indexes == nil {
		return false
	}
	for _, x := range rel.indexes.probes {
		if len(x.next) == rel.Len() && !stale || len(x.next) > rel.Len() && stale {
			return true
		}
	}
	return false
}

// TestProbeIndexMatchesScan: running a join again over the same relations
// — the second probe indexes the probed inputs, the third reuses the
// index — produces, round for round, the string-keyed reference's tuples,
// multiplicities and provenance ids, and the same event stream; the first
// round is the scan path, so the indexed rounds match it too.
func TestProbeIndexMatchesScan(t *testing.T) {
	for ci, c := range probeCases {
		plan := compileDiff(t, c.src, len(c.sizes))
		op := plan.Steps[0].Op.(*pig.JoinOp)
		for seed := int64(0); seed < 10; seed++ {
			seed := int64(100*ci) + seed
			for _, tracked := range []bool{false, true} {
				got, want := newDiffRun(seed, tracked, c.sizes, c.deferred), newDiffRun(seed, tracked, c.sizes, c.deferred)
				// Growth draws from its own stream: a generator seeded like
				// newDiffRun's would redraw A's tuples, which merge.
				gotRand, wantRand := rand.New(rand.NewSource(^seed)), rand.New(rand.NewSource(^seed))
				for round := 0; round < 3; round++ {
					if c.before != nil {
						c.before(round, got.env, got.b, gotRand)
						c.before(round, want.env, want.b, wantRand)
					}
					res, err := New(got.b).runJoin(op, got.env)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := refJoin(New(want.b), op, want.env)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s: seed %d tracked %v round %d", c.name, seed, tracked, round)
					sameAnnTuples(t, what, res.Tuples, ref.tuples)
					if !reflect.DeepEqual(got.events, want.events) {
						t.Fatalf("%s: event streams differ (%d vs %d events)", what, len(got.events), len(want.events))
					}
				}
				for _, name := range c.indexed {
					if !indexCovers(got.env.Rels[name], false) {
						t.Fatalf("%s: seed %d: input %s was not answered from a covering index", c.name, seed, name)
					}
				}
				for _, name := range c.stale {
					if !indexCovers(got.env.Rels[name], true) {
						t.Fatalf("%s: seed %d: input %s holds as many tuples as its base's index covers", c.name, seed, name)
					}
				}
			}
		}
	}
}
