package nested

import (
	"sort"
	"strings"
)

// Tuple is an ordered sequence of values. Tuples are the elements of bags.
type Tuple struct {
	Fields []Value
}

// NewTuple builds a tuple from the given values.
func NewTuple(vals ...Value) *Tuple {
	return &Tuple{Fields: vals}
}

// Arity returns the number of fields.
func (t *Tuple) Arity() int { return len(t.Fields) }

// Field returns the i-th field; it panics when out of range.
func (t *Tuple) Field(i int) Value { return t.Fields[i] }

// Compare orders tuples lexicographically field by field; shorter tuples
// order before longer ones when they share a prefix.
func (t *Tuple) Compare(u *Tuple) int {
	n := len(t.Fields)
	if len(u.Fields) < n {
		n = len(u.Fields)
	}
	for i := 0; i < n; i++ {
		if c := t.Fields[i].Compare(u.Fields[i]); c != 0 {
			return c
		}
	}
	return cmpInt(len(t.Fields), len(u.Fields))
}

// Equal reports deep equality of two tuples.
func (t *Tuple) Equal(u *Tuple) bool { return t.Compare(u) == 0 }

// Clone returns a deep copy of the tuple.
func (t *Tuple) Clone() *Tuple {
	fields := make([]Value, len(t.Fields))
	for i, v := range t.Fields {
		fields[i] = v.Clone()
	}
	return &Tuple{Fields: fields}
}

// Concat returns a new tuple with the fields of t followed by those of u.
func (t *Tuple) Concat(u *Tuple) *Tuple {
	fields := make([]Value, 0, len(t.Fields)+len(u.Fields))
	fields = append(fields, t.Fields...)
	fields = append(fields, u.Fields...)
	return &Tuple{Fields: fields}
}

// Project returns a new tuple containing the fields at the given indexes.
func (t *Tuple) Project(idx ...int) *Tuple {
	fields := make([]Value, len(idx))
	for i, j := range idx {
		fields[i] = t.Fields[j]
	}
	return &Tuple{Fields: fields}
}

// Key returns a canonical encoding of the tuple usable as a map key.
func (t *Tuple) Key() string {
	var sb strings.Builder
	t.keyInto(&sb)
	return sb.String()
}

func (t *Tuple) keyInto(sb *strings.Builder) {
	sb.WriteByte('(')
	for _, v := range t.Fields {
		v.keyInto(sb)
	}
	sb.WriteByte(')')
}

// String renders the tuple in the paper's angle-bracket notation.
func (t *Tuple) String() string {
	var sb strings.Builder
	t.format(&sb)
	return sb.String()
}

func (t *Tuple) format(sb *strings.Builder) {
	sb.WriteByte('<')
	for i, v := range t.Fields {
		if i > 0 {
			sb.WriteByte(',')
		}
		v.format(sb)
	}
	sb.WriteByte('>')
}

// Bag is an unordered multiset of tuples: the Pig Latin relation type.
type Bag struct {
	Tuples []*Tuple
}

// NewBag builds a bag from the given tuples.
func NewBag(tuples ...*Tuple) *Bag {
	return &Bag{Tuples: tuples}
}

// Add appends a tuple to the bag.
func (b *Bag) Add(t *Tuple) { b.Tuples = append(b.Tuples, t) }

// Len returns the number of tuples (with multiplicity).
func (b *Bag) Len() int { return len(b.Tuples) }

// Clone returns a deep copy of the bag.
func (b *Bag) Clone() *Bag {
	tuples := make([]*Tuple, len(b.Tuples))
	for i, t := range b.Tuples {
		tuples[i] = t.Clone()
	}
	return &Bag{Tuples: tuples}
}

// canonical returns the tuples sorted by Compare (without mutating b).
// Compare ties between tuples with different keys (Int(1) and Float(1.0)
// fields) are broken by keyCompare, so Key is independent of tuple order.
func (b *Bag) canonical() []*Tuple {
	c := make([]*Tuple, len(b.Tuples))
	copy(c, b.Tuples)
	sort.Slice(c, func(i, j int) bool {
		if d := c[i].Compare(c[j]); d != 0 {
			return d < 0
		}
		return c[i].keyCompare(c[j]) < 0
	})
	return c
}

// Compare orders bags as canonically sorted multisets.
func (b *Bag) Compare(o *Bag) int {
	bc, oc := b.canonical(), o.canonical()
	n := len(bc)
	if len(oc) < n {
		n = len(oc)
	}
	for i := 0; i < n; i++ {
		if c := bc[i].Compare(oc[i]); c != 0 {
			return c
		}
	}
	return cmpInt(len(bc), len(oc))
}

// Equal reports multiset equality (order-insensitive, multiplicity-aware).
func (b *Bag) Equal(o *Bag) bool { return b.Compare(o) == 0 }

func (b *Bag) keyInto(sb *strings.Builder) {
	sb.WriteByte('{')
	for _, t := range b.canonical() {
		t.keyInto(sb)
	}
	sb.WriteByte('}')
}

// Key returns a canonical, order-insensitive encoding of the bag.
func (b *Bag) Key() string {
	var sb strings.Builder
	b.keyInto(&sb)
	return sb.String()
}

// String renders the bag in the paper's brace notation, canonically sorted
// for deterministic output.
func (b *Bag) String() string {
	var sb strings.Builder
	b.format(&sb)
	return sb.String()
}

func (b *Bag) format(sb *strings.Builder) {
	sb.WriteByte('{')
	for i, t := range b.canonical() {
		if i > 0 {
			sb.WriteByte(',')
		}
		t.format(sb)
	}
	sb.WriteByte('}')
}

// SortBy sorts the bag in place by the given field indexes (ascending). It
// implements the ORDER operator, which the paper treats as a provenance-free
// post-processing step.
func (b *Bag) SortBy(fields ...int) {
	sort.SliceStable(b.Tuples, func(i, j int) bool {
		for _, f := range fields {
			if c := b.Tuples[i].Fields[f].Compare(b.Tuples[j].Fields[f]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// Counts returns the multiplicity of each distinct tuple, keyed by the
// canonical tuple key, along with a representative tuple per key.
func (b *Bag) Counts() (map[string]int, map[string]*Tuple) {
	counts := make(map[string]int, len(b.Tuples))
	reps := make(map[string]*Tuple, len(b.Tuples))
	for _, t := range b.Tuples {
		k := t.Key()
		counts[k]++
		if _, ok := reps[k]; !ok {
			reps[k] = t
		}
	}
	return counts, reps
}
