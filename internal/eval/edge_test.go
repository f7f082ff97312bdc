package eval

import (
	"math/rand"
	"strings"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
)

// TestDoubleFlattenCrossProduct: two FLATTEN items over different bags
// cross-multiply, with ·-provenance over the outer tuple and both members.
func TestDoubleFlattenCrossProduct(t *testing.T) {
	schemas := nested.RelationSchemas{
		"A": nested.NewSchema(
			nested.Field{Name: "k", Type: nested.ScalarType(nested.KindInt)},
			nested.Field{Name: "x", Type: nested.ScalarType(nested.KindInt)},
		),
		"B": nested.NewSchema(
			nested.Field{Name: "j", Type: nested.ScalarType(nested.KindInt)},
			nested.Field{Name: "y", Type: nested.ScalarType(nested.KindInt)},
		),
	}
	src := `CG = COGROUP A BY k, B BY j; F = FOREACH CG GENERATE group, FLATTEN(A), FLATTEN(B);`
	plan, err := pig.CompileSource(src, schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := provgraph.NewBuilder()
	env := NewEnv()
	a := NewRelation(schemas["A"])
	a.Add(b, AnnTuple{Tuple: nested.NewTuple(nested.Int(1), nested.Int(10)), Prov: b.BaseTuple("a0"), Mult: 1})
	a.Add(b, AnnTuple{Tuple: nested.NewTuple(nested.Int(1), nested.Int(11)), Prov: b.BaseTuple("a1"), Mult: 1})
	bb := NewRelation(schemas["B"])
	bb.Add(b, AnnTuple{Tuple: nested.NewTuple(nested.Int(1), nested.Int(20)), Prov: b.BaseTuple("b0"), Mult: 1})
	bb.Add(b, AnnTuple{Tuple: nested.NewTuple(nested.Int(1), nested.Int(21)), Prov: b.BaseTuple("b1"), Mult: 1})
	env.Set("A", a)
	env.Set("B", bb)
	if err := New(b).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	f, _ := env.Rel("F")
	if f.Card() != 4 {
		t.Fatalf("cross product card = %d, want 4 (%v)", f.Card(), f)
	}
	// Each result has a · node over {group δ, a-member, b-member}.
	for _, tup := range f.Tuples {
		n := b.G.Node(tup.Prov)
		if n.Op != provgraph.OpTimes {
			t.Errorf("flatten result should be ·-annotated, got %s", n.Op)
		}
		if got := len(b.G.In(tup.Prov)); got != 3 {
			t.Errorf("flatten · should have 3 sources, has %d", got)
		}
	}
	if !b.G.IsAcyclic() {
		t.Error("graph must stay acyclic")
	}
}

// TestRebindSharesIndex: Rebind preserves lookups without recomputing keys
// and maps annotations.
func TestRebindSharesIndex(t *testing.T) {
	schema := nested.NewSchema(nested.Field{Name: "x", Type: nested.ScalarType(nested.KindInt)})
	r := NewRelation(schema)
	for i := int64(0); i < 5; i++ {
		r.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(i)), Prov: provgraph.NodeID(i), Mult: 2})
	}
	bound := r.Rebind(func(t AnnTuple) AnnTuple {
		t.Prov = t.Prov + 100
		return t
	})
	if bound.Len() != 5 || bound.Card() != 10 {
		t.Fatalf("rebind len=%d card=%d", bound.Len(), bound.Card())
	}
	got, ok := bound.Lookup(nested.NewTuple(nested.Int(3)))
	if !ok || got.Prov != 103 || got.Mult != 2 {
		t.Errorf("rebound lookup = %+v, %v", got, ok)
	}
	// Original untouched.
	orig, _ := r.Lookup(nested.NewTuple(nested.Int(3)))
	if orig.Prov != 3 {
		t.Error("rebind mutated the original")
	}
}

// TestLazyAnnTupleMemoizes: a deferred (BindDeferred) node is created
// once, from the tuple's base annotation, and shared across copies.
func TestLazyAnnTupleMemoizes(t *testing.T) {
	schema := nested.NewSchema(nested.Field{Name: "x", Type: nested.ScalarType(nested.KindInt)})
	base := NewRelation(schema)
	base.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(1)), Prov: 3, Mult: 1})
	base.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(2)), Prov: 4, Mult: 2})
	calls := 0
	bound := base.BindDeferred(func(b provgraph.NodeID) provgraph.NodeID {
		calls++
		return b + 100
	})
	if calls != 0 || bound.At(0).Prov != provgraph.InvalidNode {
		t.Fatal("binding must not create nodes")
	}
	lt := bound.At(0)
	cp := lt // value copy shares the memo
	if lt.Node() != 103 || cp.Node() != 103 || lt.Node() != 103 {
		t.Error("wrong node")
	}
	if calls != 1 {
		t.Errorf("constructor called %d times, want 1", calls)
	}
	if got, ok := bound.Lookup(nested.NewTuple(nested.Int(2))); !ok || got.Mult != 2 || got.Node() != 104 || calls != 2 {
		t.Errorf("bound lookup = %+v, %v (calls %d)", got, ok, calls)
	}
	if orig, _ := base.Lookup(nested.NewTuple(nested.Int(1))); orig.Node() != 3 {
		t.Error("binding mutated the base relation")
	}
	plain := AnnTuple{Tuple: nested.NewTuple(nested.Int(1)), Prov: 9, Mult: 1}
	if plain.Node() != 9 {
		t.Error("non-deferred Node() should return Prov")
	}
}

// TestViewLookupAfterBaseGrew: a view shares its base's lazily built
// tuple index, so once the base has grown the index covers tuples the
// view does not hold; the view's Lookup must not find them.
func TestViewLookupAfterBaseGrew(t *testing.T) {
	schema := nested.NewSchema(nested.Field{Name: "x", Type: nested.ScalarType(nested.KindInt)})
	base := NewRelation(schema)
	base.AddDistinct(AnnTuple{Tuple: nested.NewTuple(nested.Int(1)), Prov: 3, Mult: 1})
	view := base.BindDeferred(func(b provgraph.NodeID) provgraph.NodeID { return b + 100 })
	base.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(2)), Prov: 4, Mult: 1})
	if got, ok := view.Lookup(nested.NewTuple(nested.Int(2))); ok {
		t.Errorf("view found %v, which its base gained after the view was made", got)
	}
	if got, ok := view.Lookup(nested.NewTuple(nested.Int(1))); !ok || got.Node() != 103 {
		t.Errorf("view lookup = %+v, %v; want the tuple annotated 103", got, ok)
	}
	if base.Len() != 2 {
		t.Errorf("base holds %d tuples, want 2", base.Len())
	}
}

// TestAddOnViewPanics: a view shares its base's storage, so Add on one
// panics, naming the kind of view, and leaves the base untouched.
func TestAddOnViewPanics(t *testing.T) {
	schema := nested.NewSchema(nested.Field{Name: "x", Type: nested.ScalarType(nested.KindInt)})
	base := NewRelation(schema)
	base.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(1)), Prov: 3, Mult: 1})
	views := map[string]*Relation{
		"Rebind":       base.Rebind(func(t AnnTuple) AnnTuple { return t }),
		"BindDeferred": base.BindDeferred(func(b provgraph.NodeID) provgraph.NodeID { return b }),
	}
	for kind, view := range views {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, kind+" view") {
					t.Errorf("Add on a %s view: panic %q, want one naming the view", kind, msg)
				}
			}()
			view.Add(nil, AnnTuple{Tuple: nested.NewTuple(nested.Int(2)), Prov: 4, Mult: 1})
		}()
	}
	if base.Len() != 1 || base.Card() != 1 {
		t.Errorf("base holds %d tuples (card %d) after Add on its views, want 1", base.Len(), base.Card())
	}
}

// TestOrderByComputedKey sorts by an arithmetic expression.
func TestOrderByComputedKey(t *testing.T) {
	schemas := nested.RelationSchemas{"A": intSchema()}
	plan, err := pig.CompileSource("O = ORDER A BY (x % 3), x;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Set("A", intRel(schemas["A"], nil, 5, 3, 1, 4, 2))
	if err := New(nil).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	o, _ := env.Rel("O")
	var got []int64
	for _, tup := range o.Tuples {
		got = append(got, tup.Tuple.Fields[0].AsInt())
	}
	want := []int64{3, 1, 4, 2, 5} // keyed by (x%3, x): (0,3),(1,1),(1,4),(2,2),(2,5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestFromBagToBagRoundTrip is a property test over random bags.
func TestFromBagToBagRoundTrip(t *testing.T) {
	schema := intSchema()
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		bag := nested.NewBag()
		for i, n := 0, r.Intn(10); i < n; i++ {
			bag.Add(nested.NewTuple(nested.Int(int64(r.Intn(4)))))
		}
		rel := FromBag(schema, bag)
		if !rel.ToBag().Equal(bag) {
			t.Fatalf("seed %d: round trip failed: %v vs %v", seed, rel.ToBag(), bag)
		}
	}
}

// TestGroupByComputedAndCompositeKeys exercises multi-key grouping with
// nested key tuples in tracked mode.
func TestGroupByCompositeKeysTracked(t *testing.T) {
	schemas := nested.RelationSchemas{
		"A": nested.NewSchema(
			nested.Field{Name: "a", Type: nested.ScalarType(nested.KindInt)},
			nested.Field{Name: "b", Type: nested.ScalarType(nested.KindInt)},
		),
	}
	plan, err := pig.CompileSource("G = GROUP A BY (a, b % 2); C = FOREACH G GENERATE group, COUNT(A) AS n;", schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := provgraph.NewBuilder()
	env := NewEnv()
	rel := NewRelation(schemas["A"])
	for i, row := range [][2]int64{{1, 1}, {1, 3}, {1, 2}, {2, 1}} {
		rel.Add(b, AnnTuple{Tuple: nested.NewTuple(nested.Int(row[0]), nested.Int(row[1])),
			Prov: b.BaseTuple("t" + string(rune('0'+i))), Mult: 1})
	}
	env.Set("A", rel)
	if err := New(b).Run(plan, env); err != nil {
		t.Fatal(err)
	}
	c, _ := env.Rel("C")
	if c.Len() != 3 {
		t.Fatalf("groups = %d, want 3 (%v)", c.Len(), c)
	}
	key := nested.TupleVal(nested.NewTuple(nested.Int(1), nested.Int(1)))
	if _, ok := c.Lookup(nested.NewTuple(key, nested.Int(2))); !ok {
		t.Errorf("missing (1,odd) group with count 2: %v", c)
	}
}
