package eval

import (
	"cmp"
	"slices"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
)

// joinTable is an n-way equality join's hash table. It is built on the
// smallest input only (the first of equal-sized ones); every other input
// is probed against it once, by a scan that evaluates each tuple's key
// exactly once or, from an input's second probe by the same key list on,
// by lookups in the input's probe index. A scan's miss costs a hash and a
// map lookup and allocates nothing. A group is one build-side key; per
// input it chains the positions of the matching tuples in input order.
//
// The output order is the one the provenance node ids depend on: groups in
// the first input's first-seen key order, and within a group the cross
// product in input order (the first input varies slowest).
type joinTable struct {
	rels  []*Relation
	keys  keyTable
	head  []int32 // group*len(rels)+input -> first link, or -1
	tail  []int32 // group*len(rels)+input -> last link
	links []joinLink
	// order lists the groups in the order the first input first matched
	// them.
	order []int32
}

// joinLink is one matching tuple: its position in its input, and the next
// link of the same group and input (-1 ends the chain).
type joinLink struct{ pos, next int32 }

// buildJoinTable hashes the smallest input and probes the others. It
// returns nil when the smallest input is empty: the join is empty and no
// key is evaluated.
func buildJoinTable(rels []*Relation, keys [][]pig.Expr) (*joinTable, error) {
	build := 0
	for i, r := range rels {
		if r.Len() < rels[build].Len() {
			build = i
		}
	}
	if rels[build].Len() == 0 {
		return nil, nil
	}
	n := len(rels)
	jt := &joinTable{rels: rels}
	k := newKeyer(keys[build])
	for pos, t := range rels[build].Tuples {
		kv, err := k.eval(t.Tuple)
		if err != nil {
			return nil, err
		}
		h := kv.KeyHash()
		g := jt.keys.find(h, kv)
		if g < 0 {
			g = jt.keys.add(h, k.own(kv))
			for range n {
				jt.head = append(jt.head, -1)
				jt.tail = append(jt.tail, -1)
			}
		}
		jt.link(g, build, pos)
	}
	indexed0 := false
	for i, rel := range rels {
		if i == build {
			continue
		}
		x, err := rel.indexFor(keys[i])
		if err != nil {
			return nil, err
		}
		if x != nil {
			for g, kv := range jt.keys.keys {
				for pos := x.lookup(kv); pos >= 0; pos = x.next[pos] {
					jt.link(int32(g), i, int(pos))
				}
			}
			indexed0 = indexed0 || i == 0
			continue
		}
		k := newKeyer(keys[i])
		for pos, t := range rel.Tuples {
			kv, err := k.eval(t.Tuple)
			if err != nil {
				return nil, err
			}
			if g := jt.keys.find(kv.KeyHash(), kv); g >= 0 {
				jt.link(g, i, pos)
			}
		}
	}
	if indexed0 {
		// Lookups linked the first input's groups in build order; restore
		// its first-seen order. A group's first link is its least position.
		slices.SortFunc(jt.order, func(a, b int32) int {
			return cmp.Compare(jt.links[jt.head[int(a)*n]].pos, jt.links[jt.head[int(b)*n]].pos)
		})
	}
	return jt, nil
}

// link appends input's tuple at pos to group g's chain.
func (jt *joinTable) link(g int32, input, pos int) {
	slot := int(g)*len(jt.rels) + input
	l := int32(len(jt.links))
	jt.links = append(jt.links, joinLink{pos: int32(pos), next: -1})
	if jt.head[slot] < 0 {
		jt.head[slot] = l
		if input == 0 {
			jt.order = append(jt.order, g)
		}
	} else {
		jt.links[jt.tail[slot]].next = l
	}
	jt.tail[slot] = l
}

// emit calls fn with every combination of matching tuples, one per input
// in input order, in output order. combo is reused between calls.
func (jt *joinTable) emit(fn func(combo []AnnTuple)) {
	n := len(jt.rels)
	cur := make([]int32, n)
	combo := make([]AnnTuple, n)
	for _, g := range jt.order {
		heads := jt.head[int(g)*n : int(g)*n+n]
		if slices.Contains(heads, -1) {
			continue
		}
		copy(cur, heads)
		for {
			for i, l := range cur {
				combo[i] = jt.rels[i].At(int(jt.links[l].pos))
			}
			fn(combo)
			// Advance like an odometer: the last input varies fastest.
			i := n - 1
			for ; i >= 0; i-- {
				if next := jt.links[cur[i]].next; next >= 0 {
					cur[i] = next
					break
				}
				cur[i] = heads[i]
			}
			if i < 0 {
				break
			}
		}
	}
}

// probeIndex maps the keys one compiled key list gives a relation's
// tuples to those tuples' positions, chained in relation order. It covers
// the relation's first len(next) tuples.
type probeIndex struct {
	// k evaluates the key list. The list's slice identity names the
	// index, which is stable because a module's plan is compiled once.
	k      keyer
	probes int // probes by the key list so far, indexed or not
	keys   keyTable
	first  []int32 // key id -> its first position
	last   []int32 // key id -> its last position
	next   []int32 // position -> the next position with the same key, or -1
}

// indexFor counts one probe of the relation by keys and, from the
// second such probe on, returns the relation's index on them, extended
// over every tuple. nil means scan: a first probe, or a view holding fewer
// tuples than its base's index covers.
func (r *Relation) indexFor(keys []pig.Expr) (*probeIndex, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	pc := r.shared()
	var x *probeIndex
	for _, c := range pc.probes {
		if &c.k.exprs[0] == &keys[0] && len(c.k.exprs) == len(keys) {
			x = c
			break
		}
	}
	if x == nil {
		x = &probeIndex{k: newKeyer(keys)}
		pc.probes = append(pc.probes, x)
	}
	x.probes++
	if x.probes < 2 || r.Len() < len(x.next) {
		return nil, nil
	}
	return x, x.extend(r.Tuples)
}

// extend indexes the tuples past the ones the index covers. After an error
// the index covers the tuples before the failing one.
func (x *probeIndex) extend(tuples []AnnTuple) error {
	x.next = slices.Grow(x.next, len(tuples)-len(x.next))
	for pos := int32(len(x.next)); int(pos) < len(tuples); pos++ {
		kv, err := x.k.eval(tuples[pos].Tuple)
		if err != nil {
			return err
		}
		h := kv.KeyHash()
		if id := x.keys.find(h, kv); id >= 0 {
			x.next[x.last[id]] = pos
			x.last[id] = pos
		} else {
			x.keys.add(h, x.k.own(kv))
			x.first = append(x.first, pos)
			x.last = append(x.last, pos)
		}
		x.next = append(x.next, -1)
	}
	return nil
}

// lookup returns the first position whose key equals k, or -1; follow the
// chain with x.next.
func (x *probeIndex) lookup(k nested.Value) int32 {
	if id := x.keys.find(k.KeyHash(), k); id >= 0 {
		return x.first[id]
	}
	return -1
}
