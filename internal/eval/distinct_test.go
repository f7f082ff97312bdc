package eval

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// distinctPrograms exercise every output the engine appends without
// hashing (JOIN, GROUP, COGROUP), downstream operators that hash what
// those produced, self-joins, 3-way joins and COGROUP. short says whether
// the inputs may hold one-field tuples: programs keyed on v may not, as
// the key would be out of range.
var distinctPrograms = []struct {
	src   string
	short bool
}{
	{"J = JOIN A BY k, A BY k;", true},
	{"AA = A; J = JOIN A BY k, AA BY v;", false},
	{"J = JOIN A BY k, B BY k, C BY k;", true},
	{"J = JOIN A BY k, B BY k; D = DISTINCT J; U = UNION J, D, J;", true},
	{"J = JOIN A BY k, B BY k; G = COGROUP J BY $0, A BY k;", true},
	{"G = COGROUP A BY k, B BY k, C BY k;", true},
	{"G = GROUP A BY k; F = FOREACH G GENERATE group, COUNT(A);", true},
	{"J = JOIN A BY (k, v), B BY (v, k); G = GROUP J BY $1; F = FOREACH G GENERATE group, COUNT(J);", false},
}

// distinctSchema is every input's schema: two int fields.
func distinctSchema() *nested.Schema {
	in := nested.ScalarType(nested.KindInt)
	return nested.NewSchema(nested.Field{Name: "k", Type: in}, nested.Field{Name: "v", Type: in})
}

// distinctTuple draws a tuple over a two-value domain, so that keys match
// and concatenations coincide often. One in four has another arity than
// the schema's: three fields, or (short) one.
func distinctTuple(r *rand.Rand, short bool) *nested.Tuple {
	arity := 2
	switch r.Intn(8) {
	case 0:
		arity = 3
	case 1:
		if short {
			arity = 1
		}
	}
	fields := make([]nested.Value, arity)
	for i := range fields {
		fields[i] = nested.Int(int64(1 + r.Intn(2)))
	}
	return nested.NewTuple(fields...)
}

// distinctRun is one side of the comparison: its inputs, drawn from seed,
// and the events its builder records.
type distinctRun struct {
	env    *Env
	b      *provgraph.Builder
	events []provgraph.Event
}

// newDistinctRun draws inputs A, B and C of the given sizes (an empty one
// included) from seed; input deferred (-1: none) is bound as workflow
// state is. tuples, when set, replaces the drawn inputs.
func newDistinctRun(seed int64, tracked, short bool, sizes []int, deferred int, tuples [][]*nested.Tuple) *distinctRun {
	d := &distinctRun{env: NewEnv()}
	if tracked {
		d.b = provgraph.NewBuilder()
		d.b.G.SetEventSink(func(ev provgraph.Event) { d.events = append(d.events, ev) })
	}
	r := rand.New(rand.NewSource(seed))
	for i, n := range sizes {
		name := string(rune('A' + i))
		rel := NewRelation(distinctSchema())
		for j := 0; j < n; j++ {
			t := distinctTuple(r, short)
			if tuples != nil {
				t = tuples[i][j]
			}
			prov := provgraph.InvalidNode
			if d.b != nil {
				prov = d.b.BaseTuple(fmt.Sprintf("%s%d", name, j))
			}
			rel.Add(d.b, AnnTuple{Tuple: t, Prov: prov, Mult: 1 + r.Intn(2)})
		}
		if i == deferred && d.b != nil {
			rel = bindProject(d.b, rel)
		}
		d.env.Set(name, rel)
	}
	return d
}

// run evaluates plan, with every output sent through Add if addAll.
func (d *distinctRun) run(t *testing.T, plan *pig.Plan, addAll bool) {
	t.Helper()
	e := New(d.b)
	e.addAll = addAll
	if err := e.Run(plan, d.env); err != nil {
		t.Fatal(err)
	}
}

// encoded is the run's event stream as store.EncodeEventBatch writes it.
func (d *distinctRun) encoded(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.EncodeEventBatch(&buf, 0, d.events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compareDistinctRuns requires every step's relation to be equal on both
// sides, multiplicities, order and provenance ids included, and the two
// event streams to encode to the same bytes.
func compareDistinctRuns(t *testing.T, what string, plan *pig.Plan, got, want *distinctRun) {
	t.Helper()
	for _, step := range plan.Steps {
		g, w := got.env.Rels[step.Target], want.env.Rels[step.Target]
		if !g.Equal(w) {
			t.Fatalf("%s: %s = %v, reference %v", what, step.Target, g, w)
		}
		sameAnnTuples(t, what+" "+step.Target, g.Tuples, w.Tuples)
	}
	if !bytes.Equal(got.encoded(t), want.encoded(t)) {
		t.Fatalf("%s: event streams encode differently (%d vs %d events)", what, len(got.events), len(want.events))
	}
}

// TestDistinctAppendsMatchAddReference: on random inputs, including
// tuples of another arity than their schema's and empty inputs, the
// engine's distinct appends give exactly the result of sending every
// output through Relation.Add: equal relations, with the same
// multiplicities, order and provenance ids, and the same encoded events.
func TestDistinctAppendsMatchAddReference(t *testing.T) {
	for pi, p := range distinctPrograms {
		schemas := nested.RelationSchemas{"A": distinctSchema(), "B": distinctSchema(), "C": distinctSchema()}
		plan, err := pig.CompileSource(p.src, schemas, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 60; c++ {
			seed := int64(1000*pi + c)
			r := rand.New(rand.NewSource(^seed))
			sizes := []int{r.Intn(7), r.Intn(7), r.Intn(7)}
			deferred := c%4 - 1
			for _, tracked := range []bool{false, true} {
				got := newDistinctRun(seed, tracked, p.short, sizes, deferred, nil)
				want := newDistinctRun(seed, tracked, p.short, sizes, deferred, nil)
				got.run(t, plan, false)
				want.run(t, plan, true)
				compareDistinctRuns(t, fmt.Sprintf("%q seed %d sizes %v tracked %v", p.src, seed, sizes, tracked), plan, got, want)
			}
		}
	}
}

// TestJoinFallsBackOnOtherArity: a join whose inputs hold tuples of
// another arity than their schema's can concatenate two combinations to
// one tuple. Here the first combination, (1,5)+(1,1), is appended
// unhashed, and the last, (1,5,1)+(1), equals it; the join must merge
// them, as Add would.
func TestJoinFallsBackOnOtherArity(t *testing.T) {
	tup := func(vals ...int64) *nested.Tuple {
		fields := make([]nested.Value, len(vals))
		for i, v := range vals {
			fields[i] = nested.Int(v)
		}
		return nested.NewTuple(fields...)
	}
	inputs := [][]*nested.Tuple{{tup(1, 5), tup(1, 5, 1)}, {tup(1, 1), tup(1)}}
	plan, err := pig.CompileSource("J = JOIN A BY k, B BY k;", nested.RelationSchemas{"A": distinctSchema(), "B": distinctSchema()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tracked := range []bool{false, true} {
		got := newDistinctRun(1, tracked, true, []int{2, 2}, -1, inputs)
		want := newDistinctRun(1, tracked, true, []int{2, 2}, -1, inputs)
		got.run(t, plan, false)
		want.run(t, plan, true)
		compareDistinctRuns(t, fmt.Sprintf("tracked %v", tracked), plan, got, want)
		if j := got.env.Rels["J"]; j.Len() != 3 {
			t.Fatalf("tracked %v: join holds %d distinct tuples, want 3 (two combinations merge)", tracked, j.Len())
		}
	}
}
