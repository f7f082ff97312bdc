package nested

import (
	"hash/maphash"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Typed keying. KeyHash and KeyEqual give values the equivalence of their
// canonical encodings (v.Key() == w.Key()) without rendering one: kinds
// are exact (Int(1) differs from Float(1.0)), floats compare by their bits
// (+0 differs from -0; a NaN equals a NaN with the same bits), Null equals
// Null, tuples compare field by field and bags as multisets. Compare is
// the ordering for ORDER BY and display; the evaluator groups, joins and
// dedupes with this keying.

// strSeed seeds string hashing. Hashes are process-local: nothing that is
// stored or emitted depends on them, only the layout of in-memory tables.
var strSeed = maphash.MakeSeed()

// mix folds x into the hash state h (a 64x64->128 multiply folded back to
// 64 bits, as in wyhash).
func mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^0xa0761d6478bd642f, x^0xe7037ed1a0b428db)
	return hi ^ lo
}

// KeyHash returns a 64-bit hash of the value. KeyEqual values hash alike.
func (v Value) KeyHash() uint64 {
	k := uint64(v.kind)
	switch v.kind {
	case KindBool, KindInt:
		return mix(k, uint64(v.n))
	case KindFloat:
		return mix(k, math.Float64bits(v.f))
	case KindString:
		return mix(k, maphash.String(strSeed, v.s))
	case KindTuple:
		return mix(k, v.t.KeyHash())
	case KindBag:
		return mix(k, v.b.keyHash())
	default:
		return mix(k, 0)
	}
}

// KeyHash returns a 64-bit hash of the tuple; tuples for which KeyEqual
// holds hash alike.
func (t *Tuple) KeyHash() uint64 {
	h := uint64(len(t.Fields))
	for _, f := range t.Fields {
		h = mix(h, f.KeyHash())
	}
	return h
}

// keyHash sums the members' hashes, so it is independent of tuple order.
func (b *Bag) keyHash() uint64 {
	var sum uint64
	for _, t := range b.Tuples {
		sum += mix(uint64(KindBag), t.KeyHash())
	}
	return mix(uint64(len(b.Tuples)), sum)
}

// KeyEqual reports whether a and b have the same canonical key.
func KeyEqual(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindBool, KindInt:
		return a.n == b.n
	case KindFloat:
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	case KindString:
		return a.s == b.s
	case KindTuple:
		return a.t.KeyEqual(b.t)
	case KindBag:
		return len(a.b.Tuples) == len(b.b.Tuples) && a.b.keyCompare(b.b) == 0
	default:
		return true
	}
}

// KeyEqual reports whether the tuples have the same canonical key: equal
// arity and KeyEqual fields.
func (t *Tuple) KeyEqual(u *Tuple) bool {
	if len(t.Fields) != len(u.Fields) {
		return false
	}
	for i := range t.Fields {
		if !KeyEqual(t.Fields[i], u.Fields[i]) {
			return false
		}
	}
	return true
}

// keyCompare is a total order whose equivalence is KeyEqual. It orders
// bags for multiset comparison and breaks Compare's cross-kind numeric
// ties in canonical bag order.
func keyCompare(a, b Value) int {
	if a.kind != b.kind {
		return cmpInt(int(a.kind), int(b.kind))
	}
	switch a.kind {
	case KindBool, KindInt:
		return cmpInt64(a.n, b.n)
	case KindFloat:
		x, y := math.Float64bits(a.f), math.Float64bits(b.f)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindTuple:
		return a.t.keyCompare(b.t)
	case KindBag:
		return a.b.keyCompare(b.b)
	default:
		return 0
	}
}

func (t *Tuple) keyCompare(u *Tuple) int {
	n := min(len(t.Fields), len(u.Fields))
	for i := 0; i < n; i++ {
		if c := keyCompare(t.Fields[i], u.Fields[i]); c != 0 {
			return c
		}
	}
	return cmpInt(len(t.Fields), len(u.Fields))
}

// keyCompare orders bags as multisets: by size, then member by member in
// keyCompare order.
func (b *Bag) keyCompare(o *Bag) int {
	if c := cmpInt(len(b.Tuples), len(o.Tuples)); c != 0 {
		return c
	}
	bs, os := b.keySorted(), o.keySorted()
	for i := range bs {
		if c := bs[i].keyCompare(os[i]); c != 0 {
			return c
		}
	}
	return 0
}

func (b *Bag) keySorted() []*Tuple {
	c := make([]*Tuple, len(b.Tuples))
	copy(c, b.Tuples)
	sort.Slice(c, func(i, j int) bool { return c[i].keyCompare(c[j]) < 0 })
	return c
}
