package nested

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int", KindFloat: "float",
		KindString: "string", KindTuple: "tuple", KindBag: "bag", Kind(42): "kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool roundtrip failed")
	}
	if Int(-7).AsInt() != -7 {
		t.Error("Int roundtrip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float roundtrip failed")
	}
	if Str("civic").AsString() != "civic" {
		t.Error("Str roundtrip failed")
	}
	tu := NewTuple(Int(1))
	if TupleVal(tu).AsTuple() != tu {
		t.Error("TupleVal roundtrip failed")
	}
	b := NewBag(tu)
	if BagVal(b).AsBag() != b {
		t.Error("BagVal roundtrip failed")
	}
}

func TestAccessorPanics(t *testing.T) {
	checks := []func(){
		func() { Int(1).AsBool() },
		func() { Bool(true).AsInt() },
		func() { Int(1).AsFloat() },
		func() { Int(1).AsString() },
		func() { Int(1).AsTuple() },
		func() { Int(1).AsBag() },
	}
	for i, f := range checks {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNumeric(t *testing.T) {
	if f, ok := Int(3).Numeric(); !ok || f != 3 {
		t.Errorf("Int(3).Numeric() = %v, %v", f, ok)
	}
	if f, ok := Float(3.5).Numeric(); !ok || f != 3.5 {
		t.Errorf("Float(3.5).Numeric() = %v, %v", f, ok)
	}
	if _, ok := Str("x").Numeric(); ok {
		t.Error("string should not be numeric")
	}
}

func TestCompareCrossKind(t *testing.T) {
	order := []Value{Null(), Bool(false), Bool(true), Int(-1), Int(0), Float(0.5), Int(1),
		Str("a"), Str("b"), TupleVal(NewTuple()), BagVal(NewBag())}
	for i := range order {
		for j := range order {
			got := order[i].Compare(order[j])
			want := cmpInt(i, j)
			// Adjacent equal-rank values (e.g. Int(0) vs Float(0.0)) only
			// matter when want==0; our list has strictly increasing values.
			if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Errorf("Compare(%v, %v) = %d, want sign of %d", order[i], order[j], got, want)
			}
		}
	}
}

func TestCompareNumericMixed(t *testing.T) {
	if Int(2).Compare(Float(2.0)) != 0 {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Int(2).Compare(Float(2.5)) != -1 {
		t.Error("Int(2) should be less than Float(2.5)")
	}
	if Float(3.5).Compare(Int(3)) != 1 {
		t.Error("Float(3.5) should be greater than Int(3)")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("Civic"), "Civic"},
		{TupleVal(NewTuple(Str("C2"), Str("Civic"))), "<C2,Civic>"},
		{BagVal(NewBag(NewTuple(Int(2)), NewTuple(Int(1)))), "{<1>,<2>}"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueClone(t *testing.T) {
	inner := NewTuple(Int(1), Str("a"))
	b := NewBag(inner)
	v := TupleVal(NewTuple(BagVal(b), Int(7)))
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone not equal")
	}
	// Mutating the clone must not affect the original.
	c.AsTuple().Fields[0].AsBag().Tuples[0].Fields[0] = Int(99)
	if v.AsTuple().Fields[0].AsBag().Tuples[0].Fields[0].AsInt() != 1 {
		t.Error("clone aliases original storage")
	}
}

// genValue builds a random value of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	k := r.Intn(7)
	if depth <= 0 && k >= 5 {
		k = r.Intn(5)
	}
	switch k {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(int64(r.Intn(21) - 10))
	case 3:
		return Float(float64(r.Intn(21)-10) / 2)
	case 4:
		return Str(string(rune('a' + r.Intn(4))))
	case 5:
		return TupleVal(genTuple(r, depth-1))
	default:
		b := NewBag()
		for i, n := 0, r.Intn(3); i < n; i++ {
			b.Add(genTuple(r, depth-1))
		}
		return BagVal(b)
	}
}

func genTuple(r *rand.Rand, depth int) *Tuple {
	n := r.Intn(4)
	fields := make([]Value, n)
	for i := range fields {
		fields[i] = genValue(r, depth)
	}
	return NewTuple(fields...)
}

type valueBox struct{ v Value }

// Generate implements quick.Generator for random bounded-depth values.
func (valueBox) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueBox{genValue(r, 2)})
}

func TestCompareIsReflexiveAndAntisymmetric(t *testing.T) {
	f := func(a, b valueBox) bool {
		if a.v.Compare(a.v) != 0 {
			return false
		}
		return a.v.Compare(b.v) == -b.v.Compare(a.v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompareIsTransitiveOnTriples(t *testing.T) {
	f := func(a, b, c valueBox) bool {
		vs := []Value{a.v, b.v, c.v}
		// Sort the triple with Compare; verify result is totally ordered.
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if vs[i].Compare(vs[j]) > 0 {
					vs[i], vs[j] = vs[j], vs[i]
				}
			}
		}
		return vs[0].Compare(vs[1]) <= 0 && vs[1].Compare(vs[2]) <= 0 && vs[0].Compare(vs[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEqualValuesHaveEqualKeysAndHashes: KeyEqual is exactly canonical-key
// equality, implies Compare-equality, and KeyEqual values hash alike.
func TestEqualValuesHaveEqualKeysAndHashes(t *testing.T) {
	f := func(a, b valueBox) bool {
		for _, w := range []Value{b.v, a.v.Clone()} {
			keyEq := KeyEqual(a.v, w)
			if keyEq != (a.v.Key() == w.Key()) {
				return false
			}
			if keyEq && (!a.v.Equal(w) || a.v.KeyHash() != w.KeyHash()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCloneEqualsOriginalProperty(t *testing.T) {
	f := func(a valueBox) bool { return a.v.Equal(a.v.Clone()) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHasherDistinguishesSimpleValues(t *testing.T) {
	vals := []Value{Null(), Bool(false), Bool(true), Int(0), Int(1), Float(0), Float(1), Float(1.5), Str(""), Str("a"), Str("b")}
	seen := make(map[uint64]Value)
	for _, v := range vals {
		h := v.KeyHash()
		if prev, ok := seen[h]; ok {
			t.Errorf("hash collision between %v and %v", prev, v)
		}
		seen[h] = v
	}
}

func TestTruthy(t *testing.T) {
	if !Bool(true).Truthy() || Bool(false).Truthy() || Int(1).Truthy() || Null().Truthy() {
		t.Error("Truthy misbehaves")
	}
}
