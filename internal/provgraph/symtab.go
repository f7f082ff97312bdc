package provgraph

import "unsafe"

// symtab interns the graph's label, module, and node-name strings: every
// distinct string is stored once in a byte slab and referenced by a dense
// uint32 symbol id, so a node column holds 4 bytes per label instead of a
// 16-byte string header, and ApplyEvent stops allocating one string copy
// per event. Symbol 0 is always the empty string.
//
// Like col, the table splits into a read-only base (the symbol section of
// an opened snapshot — copied to the heap when the snapshot is mmap'd, see
// FromFrozen, because str's results escape) and a heap-owned grow region
// for strings interned afterwards. Lookups materialize a reverse map lazily,
// only when something actually interns — pure readers never build it.
type symtab struct {
	baseOffs []uint32 // read-only; len = base symbol count + 1
	baseSlab []byte   // read-only backing bytes of the base symbols
	offs     []uint32 // grow offsets into slab; len = grown count + 1
	slab     []byte   // heap backing bytes of grown symbols
	lookup   map[string]uint32
}

// init seeds an empty table with symbol 0 = "".
func (t *symtab) init() { t.offs = []uint32{0, 0} }

func (t *symtab) baseCount() int {
	if len(t.baseOffs) == 0 {
		return 0
	}
	return len(t.baseOffs) - 1
}

// count returns the number of interned symbols.
func (t *symtab) count() int {
	n := t.baseCount()
	if len(t.offs) > 0 {
		n += len(t.offs) - 1
	}
	return n
}

// str returns symbol id's string without copying: the string header points
// straight into the slab. Slabs only ever grow, so the bytes are stable.
func (t *symtab) str(id uint32) string {
	bc := t.baseCount()
	var b []byte
	if int(id) < bc {
		b = t.baseSlab[t.baseOffs[id]:t.baseOffs[id+1]]
	} else {
		j := int(id) - bc
		b = t.slab[t.offs[j]:t.offs[j+1]]
	}
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// intern returns the symbol id for s, adding it to the grow region on
// first use. Callers mutate the table only from the graph's single-writer
// paths; concurrent readers use str, which never touches the lookup map.
func (t *symtab) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if t.lookup == nil {
		t.buildLookup()
	}
	if id, ok := t.lookup[s]; ok {
		return id
	}
	if len(t.offs) == 0 {
		t.offs = []uint32{0}
	}
	id := uint32(t.baseCount() + len(t.offs) - 1)
	t.slab = append(t.slab, s...)
	t.offs = append(t.offs, uint32(len(t.slab)))
	// Key the map with the slab-backed string, not the caller's copy, so
	// the table is self-contained. Slab reallocations leave previously
	// created headers pointing at the old (immutable) array, which is fine.
	t.lookup[t.str(id)] = id
	return id
}

// buildLookup materializes the reverse map over every existing symbol.
func (t *symtab) buildLookup() {
	t.lookup = make(map[string]uint32, t.count())
	for id := 1; id < t.count(); id++ {
		t.lookup[t.str(uint32(id))] = uint32(id)
	}
}

// publish returns a read-only copy for a published view: bases are shared
// and the grow region is length-clipped. The writer's later interns append
// past the clipped lengths (or reallocate), which view readers never
// touch; str never consults the lookup map, so it is dropped.
func (t *symtab) publish() symtab {
	return symtab{
		baseOffs: t.baseOffs,
		baseSlab: t.baseSlab,
		offs:     t.offs[:len(t.offs):len(t.offs)],
		slab:     t.slab[:len(t.slab):len(t.slab)],
	}
}

// cloneShared shares the read-only base and deep-copies the grow region;
// the clone rebuilds its lookup map on its next intern.
func (t *symtab) cloneShared() symtab {
	return symtab{
		baseOffs: t.baseOffs,
		baseSlab: t.baseSlab,
		offs:     append([]uint32(nil), t.offs...),
		slab:     append([]byte(nil), t.slab...),
	}
}
