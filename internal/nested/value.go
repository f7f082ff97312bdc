// Package nested implements the nested relational data model used by the
// Lipstick Pig Latin dialect: scalar values, tuples, bags (unordered
// multisets of tuples), and schemas. Relations may be nested, i.e. a tuple
// field may itself contain a bag of tuples, matching the data model of
// Pig Latin as described in Section 2.1 of the Lipstick paper.
package nested

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the kinds of values in the data model.
type Kind uint8

const (
	// KindNull is the absent value. Nulls compare before every other value.
	KindNull Kind = iota
	// KindBool is a boolean scalar.
	KindBool
	// KindInt is a 64-bit signed integer scalar.
	KindInt
	// KindFloat is a 64-bit IEEE-754 floating point scalar.
	KindFloat
	// KindString is an immutable string scalar.
	KindString
	// KindTuple is a nested tuple value.
	KindTuple
	// KindBag is a nested bag (unordered multiset of tuples).
	KindBag
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTuple:
		return "tuple"
	case KindBag:
		return "bag"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed value: a scalar, a tuple, or a bag.
// The zero Value is Null.
type Value struct {
	kind Kind
	n    int64 // int payload; 0/1 for bool
	f    float64
	s    string
	t    *Tuple
	b    *Bag
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n int64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String_ returns a string value. (Named with a trailing underscore to keep
// Value.String free for fmt.Stringer.)
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Str is shorthand for String_.
func Str(s string) Value { return String_(s) }

// TupleVal wraps a tuple as a value.
func TupleVal(t *Tuple) Value { return Value{kind: KindTuple, t: t} }

// BagVal wraps a bag as a value.
func BagVal(b *Bag) Value { return Value{kind: KindBag, b: b} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it panics if the value is not a bool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("nested: AsBool on %s value", v.kind))
	}
	return v.n != 0
}

// AsInt returns the integer payload; it panics if the value is not an int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("nested: AsInt on %s value", v.kind))
	}
	return v.n
}

// AsFloat returns the float payload; it panics if the value is not a float.
func (v Value) AsFloat() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("nested: AsFloat on %s value", v.kind))
	}
	return v.f
}

// AsString returns the string payload; it panics if the value is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("nested: AsString on %s value", v.kind))
	}
	return v.s
}

// AsTuple returns the tuple payload; it panics if the value is not a tuple.
func (v Value) AsTuple() *Tuple {
	if v.kind != KindTuple {
		panic(fmt.Sprintf("nested: AsTuple on %s value", v.kind))
	}
	return v.t
}

// AsBag returns the bag payload; it panics if the value is not a bag.
func (v Value) AsBag() *Bag {
	if v.kind != KindBag {
		panic(fmt.Sprintf("nested: AsBag on %s value", v.kind))
	}
	return v.b
}

// Numeric reports the value as a float64 if it is an int or a float.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.n), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// Truthy reports whether the value is a true boolean.
func (v Value) Truthy() bool { return v.kind == KindBool && v.n != 0 }

// kindRank gives the cross-kind ordering used by Compare. Numeric kinds
// share a rank so that Int(1) and Float(1.0) compare equal-by-value.
func kindRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindTuple:
		return 4
	case KindBag:
		return 5
	default:
		return 6
	}
}

// Compare defines a total order over values: by kind rank, then by payload.
// Numeric values of different kinds are compared numerically. Bags are
// compared as canonically sorted multisets. It returns -1, 0, or +1.
func (v Value) Compare(w Value) int {
	ra, rb := kindRank(v.kind), kindRank(w.kind)
	if ra != rb {
		return cmpInt(ra, rb)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmpInt64(v.n, w.n)
	case KindInt, KindFloat:
		a, _ := v.Numeric()
		b, _ := w.Numeric()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(v.s, w.s)
	case KindTuple:
		return v.t.Compare(w.t)
	case KindBag:
		return v.b.Compare(w.b)
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Clone returns a deep copy of the value. Scalars are immutable and shared;
// tuples and bags are copied recursively.
func (v Value) Clone() Value {
	switch v.kind {
	case KindTuple:
		return TupleVal(v.t.Clone())
	case KindBag:
		return BagVal(v.b.Clone())
	default:
		return v
	}
}

// String renders the value for display: strings are unquoted, tuples use
// angle brackets, and bags use braces, matching the paper's notation.
func (v Value) String() string {
	var sb strings.Builder
	v.format(&sb)
	return sb.String()
}

func (v Value) format(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		if v.n != 0 {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.n, 10))
	case KindFloat:
		sb.WriteString(strconv.FormatFloat(v.f, 'g', -1, 64))
	case KindString:
		sb.WriteString(v.s)
	case KindTuple:
		v.t.format(sb)
	case KindBag:
		v.b.format(sb)
	}
}

// Key returns a canonical encoding of the value usable as a map key.
func (v Value) Key() string {
	var sb strings.Builder
	v.keyInto(&sb)
	return sb.String()
}

func (v Value) keyInto(sb *strings.Builder) {
	sb.WriteByte(byte('0' + v.kind))
	switch v.kind {
	case KindBool, KindInt:
		sb.WriteString(strconv.FormatInt(v.n, 10))
	case KindFloat:
		sb.WriteString(strconv.FormatUint(math.Float64bits(v.f), 16))
	case KindString:
		sb.WriteString(strconv.Itoa(len(v.s)))
		sb.WriteByte(':')
		sb.WriteString(v.s)
	case KindTuple:
		v.t.keyInto(sb)
	case KindBag:
		v.b.keyInto(sb)
	}
	sb.WriteByte(';')
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
