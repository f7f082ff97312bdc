package eval

import (
	"slices"

	"lipstick/internal/pig"
)

// joinTable is an n-way equality join's hash table. It is built on the
// smallest input only (the first of equal-sized ones); every other input
// is probed against it once. Each tuple's key is evaluated exactly once,
// and a probe miss costs a hash and a map lookup and allocates nothing.
// A group is one build-side key; per input it chains the positions of the
// matching tuples in input order.
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
	for i, rel := range rels {
		if i == build {
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
				combo[i] = jt.rels[i].Tuples[jt.links[l].pos]
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
