package nested

import (
	"math"
	"math/rand"
	"testing"
)

// TestKeyEqualMatchesKeyOnEdgeCases pins the keying's corner cases against
// the canonical string encoding.
func TestKeyEqualMatchesKeyOnEdgeCases(t *testing.T) {
	nan := math.NaN()
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	negZero := math.Copysign(0, -1)
	mixed := func(first, second Value) Value {
		return BagVal(NewBag(NewTuple(first), NewTuple(second)))
	}
	cases := []struct {
		name string
		a, b Value
		want bool
	}{
		{"int vs float", Int(1), Float(1), false},
		{"+0 vs -0", Float(0), Float(negZero), false},
		{"-0 vs -0", Float(negZero), Float(negZero), true},
		{"NaN vs NaN", Float(nan), Float(nan), true},
		{"NaN payloads", Float(nan), Float(otherNaN), false},
		{"null vs null", Null(), Null(), true},
		{"null vs int 0", Null(), Int(0), false},
		{"bool vs int", Bool(true), Int(1), false},
		{"string vs string", Str("ab"), Str("ab"), true},
		{"tuple arity", TupleVal(NewTuple(Int(1))), TupleVal(NewTuple(Int(1), Null())), false},
		{"nested int vs float", TupleVal(NewTuple(Int(1))), TupleVal(NewTuple(Float(1))), false},
		{"bag order", BagVal(NewBag(NewTuple(Int(1)), NewTuple(Int(2)))), BagVal(NewBag(NewTuple(Int(2)), NewTuple(Int(1)))), true},
		{"bag multiplicity", BagVal(NewBag(NewTuple(Int(1)), NewTuple(Int(1)))), BagVal(NewBag(NewTuple(Int(1)))), false},
		{"bag mixed numerics", mixed(Int(1), Float(1)), mixed(Float(1), Int(1)), true},
		{"empty bags", BagVal(NewBag()), BagVal(NewBag()), true},
	}
	for _, c := range cases {
		if got := KeyEqual(c.a, c.b); got != c.want {
			t.Errorf("%s: KeyEqual = %v, want %v", c.name, got, c.want)
		}
		if got := c.a.Key() == c.b.Key(); got != c.want {
			t.Errorf("%s: Key equality = %v, want %v (%q vs %q)", c.name, got, c.want, c.a.Key(), c.b.Key())
		}
		if c.want && c.a.KeyHash() != c.b.KeyHash() {
			t.Errorf("%s: equal keys hash differently", c.name)
		}
	}
}

// TestBagKeyIsPermutationInvariant: shuffling a bag — including one whose
// members tie under Compare but not under the keying — changes neither
// its key nor its hash.
func TestBagKeyIsPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		b := NewBag()
		for i, n := 0, r.Intn(20); i < n; i++ {
			v := Int(int64(r.Intn(3)))
			if r.Intn(2) == 0 {
				v = Float(float64(r.Intn(3)))
			}
			b.Add(NewTuple(v))
		}
		shuffled := NewBag(append([]*Tuple(nil), b.Tuples...)...)
		r.Shuffle(len(shuffled.Tuples), func(i, j int) {
			shuffled.Tuples[i], shuffled.Tuples[j] = shuffled.Tuples[j], shuffled.Tuples[i]
		})
		x, y := BagVal(b), BagVal(shuffled)
		if x.Key() != y.Key() || !KeyEqual(x, y) || x.KeyHash() != y.KeyHash() {
			t.Fatalf("trial %d: permuted bag keys differ: %q vs %q", trial, x.Key(), y.Key())
		}
	}
}

// TestKeyHashAllocatesNothing: hashing and comparing scalar and tuple keys
// is allocation-free (the evaluator's probe path relies on it).
func TestKeyHashAllocatesNothing(t *testing.T) {
	a := NewTuple(Str("civic"), Int(7), Float(2.5), TupleVal(NewTuple(Null(), Bool(true))))
	b := NewTuple(Str("civic"), Int(7), Float(2.5), TupleVal(NewTuple(Null(), Bool(true))))
	allocs := testing.AllocsPerRun(100, func() {
		if a.KeyHash() != b.KeyHash() || !a.KeyEqual(b) {
			t.Fatal("equal tuples disagree")
		}
	})
	if allocs != 0 {
		t.Errorf("KeyHash/KeyEqual allocate %.1f times per call", allocs)
	}
}
