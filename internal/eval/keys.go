package eval

import (
	"lipstick/internal/nested"
	"lipstick/internal/pig"
)

// keyIndex maps 64-bit key hashes to dense ids 0, 1, 2, ... in insertion
// order, chaining ids whose hashes collide. It stores no keys: the caller
// owns them (a relation's tuples, a join's or grouping's keys) and
// resolves each candidate with the typed keying's equality, so lookups
// never render a key and a miss allocates nothing.
type keyIndex struct {
	head map[uint64]int32 // hash -> most recently added id with that hash
	next []int32          // id -> previous id with the same hash, or -1
}

// first returns the most recently added id with hash h, or -1; follow the
// chain with x.next[id].
func (x *keyIndex) first(h uint64) int32 {
	if id, ok := x.head[h]; ok {
		return id
	}
	return -1
}

// add assigns the next id to hash h. The caller guarantees the key is not
// already present.
func (x *keyIndex) add(h uint64) int32 {
	if x.head == nil {
		x.head = make(map[uint64]int32)
	}
	id := int32(len(x.next))
	prev, ok := x.head[h]
	if !ok {
		prev = -1
	}
	x.next = append(x.next, prev)
	x.head[h] = id
	return id
}

// keyTable is a keyIndex that owns its keys: GROUP/COGROUP buckets and
// JOIN build sides.
type keyTable struct {
	index keyIndex
	keys  []nested.Value
}

// find returns the id of key k (whose hash is h), or -1.
func (kt *keyTable) find(h uint64, k nested.Value) int32 {
	for id := kt.index.first(h); id >= 0; id = kt.index.next[id] {
		if nested.KeyEqual(kt.keys[id], k) {
			return id
		}
	}
	return -1
}

// add assigns the next id to key k (whose hash is h), which find has just
// reported absent. k must be owned (see keyer.own).
func (kt *keyTable) add(h uint64, k nested.Value) int32 {
	kt.keys = append(kt.keys, k)
	return kt.index.add(h)
}

// keyer evaluates one input's (possibly composite) key expressions. A
// composite key is assembled in a scratch tuple reused for every input
// tuple, so evaluating, hashing and probing a key allocates nothing; a key
// that is kept must be detached with own.
type keyer struct {
	exprs   []pig.Expr
	scratch *nested.Tuple // composite keys only
}

func newKeyer(exprs []pig.Expr) keyer {
	k := keyer{exprs: exprs}
	if len(exprs) != 1 {
		k.scratch = nested.NewTuple(make([]nested.Value, len(exprs))...)
	}
	return k
}

// eval computes the key of t. A composite key is only valid until the
// next call.
func (k *keyer) eval(t *nested.Tuple) (nested.Value, error) {
	if k.scratch == nil {
		return k.exprs[0].Eval(t)
	}
	for i, e := range k.exprs {
		v, err := e.Eval(t)
		if err != nil {
			return nested.Null(), err
		}
		k.scratch.Fields[i] = v
	}
	return nested.TupleVal(k.scratch), nil
}

// own detaches a key returned by eval from the scratch tuple.
func (k *keyer) own(v nested.Value) nested.Value {
	if k.scratch == nil {
		return v
	}
	return nested.TupleVal(nested.NewTuple(append([]nested.Value(nil), k.scratch.Fields...)...))
}
