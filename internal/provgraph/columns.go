package provgraph

// Struct-of-arrays storage primitives. Graph state lives in dense typed
// columns instead of a []Node of pointer-heavy structs. Two storage shapes
// exist:
//
//   - col: a flat append-only column — a read-only base region (possibly
//     aliasing a mapped snapshot file) plus a heap-owned tail. Used for
//     attributes that are never overwritten after the append (class, type,
//     op, label).
//   - chunked: a fixed-size-block column with per-block copy-on-write.
//     Used for attributes that CAN be overwritten below the append
//     watermark (inv, valIx, invocation records, adjacency lists): an
//     epoch-published view shares the block table, and the writer's next
//     in-place write to a shared block copies just that block (~chunkSize
//     slots), never the whole column. This is what makes publishing a
//     point-in-time view O(blocks) instead of O(nodes).
//
// Either way, a graph opened from an mmap'd snapshot never writes through
// the mapping: flat bases copy-on-write wholesale (legacy set paths are
// gone), and thawed chunked blocks alias the mapping with a stale epoch so
// the first write copies the block to the heap.

const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift // slots per block
	chunkMask  = chunkSize - 1
)

// chunked is a copy-on-write block column. blocks[b] covers slots
// [b*chunkSize, (b+1)*chunkSize); every block has len chunkSize except the
// last, whose len is n - b*chunkSize.
//
// The epoch protocol: epochs[b] == epoch means block b is privately
// writable in place; anything else means the block may be shared with a
// published view (or a mapping) and must be copied before an overwrite.
// publish bumps the writer's epoch, instantly demoting every block to
// shared. Appends to the last block never need a copy — they write slots
// at indices >= every published view's length, which no reader looks at.
//
// A published copy has epochs == nil and epoch == 0: it is read-only by
// construction, and a stray write panics instead of corrupting a reader.
type chunked[T any] struct {
	blocks [][]T
	epochs []uint64
	n      int
	epoch  uint64
}

func (c *chunked[T]) len() int { return c.n }

func (c *chunked[T]) at(i int) T { return c.blocks[i>>chunkShift][i&chunkMask] }

// add appends one slot.
func (c *chunked[T]) add(v T) {
	b := c.n >> chunkShift
	if b == len(c.blocks) {
		c.blocks = append(c.blocks, make([]T, 0, chunkSize))
		c.epochs = append(c.epochs, c.epoch)
	}
	blk := c.blocks[b]
	if len(blk) == cap(blk) && len(blk) < chunkSize {
		// Capacity-clipped (thawed/cloned) last block: grow into a private
		// full-capacity array once instead of letting append pick a size.
		nb := make([]T, len(blk), chunkSize)
		copy(nb, blk)
		blk = nb
		c.epochs[b] = c.epoch
	}
	c.blocks[b] = append(blk, v)
	c.n++
}

// ptr returns a writable pointer to slot i, copying the block first if it
// may be shared with a published view.
func (c *chunked[T]) ptr(i int) *T {
	b := i >> chunkShift
	if c.epochs[b] != c.epoch {
		blk := c.blocks[b]
		nb := make([]T, len(blk), chunkSize)
		copy(nb, blk)
		c.blocks[b] = nb
		c.epochs[b] = c.epoch
	}
	return &c.blocks[b][i&chunkMask]
}

// roPtr returns a read-only pointer to slot i without unsharing the block.
// Callers must not write through it; a later ptr/set can move the slot.
func (c *chunked[T]) roPtr(i int) *T { return &c.blocks[i>>chunkShift][i&chunkMask] }

// set overwrites slot i (copy-on-write on shared blocks).
func (c *chunked[T]) set(i int, v T) { *c.ptr(i) = v }

// publish returns a read-only point-in-time copy sharing every block, and
// demotes the writer's blocks to shared so its next in-place write copies.
// Cost: one outer slice copy, O(len(blocks)).
func (c *chunked[T]) publish() chunked[T] {
	c.epoch++
	return chunked[T]{blocks: append([][]T(nil), c.blocks...), n: c.n}
}

// cloneShared returns an independently writable copy. Full blocks are
// shared copy-on-write from both sides (the receiver's epoch is bumped too,
// so neither writer overwrites memory the other still reads); the last
// block — the only one either side appends to — is deep-copied so the two
// writers' appends cannot land on the same array slot.
func (c *chunked[T]) cloneShared() chunked[T] {
	c.epoch++
	cl := chunked[T]{
		blocks: append([][]T(nil), c.blocks...),
		epochs: make([]uint64, len(c.blocks)),
		n:      c.n,
		epoch:  1,
	}
	if nb := len(cl.blocks); nb > 0 {
		last := cl.blocks[nb-1]
		cp := make([]T, len(last), chunkSize)
		copy(cp, last)
		cl.blocks[nb-1] = cp
		cl.epochs[nb-1] = 1
	}
	return cl
}

// thawChunked wraps a flat (possibly mapped, read-only) base array as a
// chunked column whose blocks alias base subslices. Every block starts
// shared (epoch 0 vs writer epoch 1), so the first overwrite copies it to
// the heap — the mapping is never written. Block capacities are clipped so
// an append through a block can never clobber the neighbor's slots.
func thawChunked[T any](base []T) chunked[T] {
	nb := (len(base) + chunkSize - 1) >> chunkShift
	c := chunked[T]{
		blocks: make([][]T, nb),
		epochs: make([]uint64, nb),
		n:      len(base),
		epoch:  1,
	}
	for b := 0; b < nb; b++ {
		lo := b << chunkShift
		hi := lo + chunkSize
		if hi > len(base) {
			hi = len(base)
		}
		c.blocks[b] = base[lo:hi:hi]
	}
	return c
}

// col is one flat append-only column of node attributes.
type col[T any] struct {
	// base is the read-only region covering the first len(base) slots. It
	// may alias mapped file memory and is never written.
	base []T
	// tail holds slots appended after base; always heap-owned.
	tail []T
}

func (c *col[T]) len() int { return len(c.base) + len(c.tail) }

func (c *col[T]) at(i int) T {
	if i < len(c.base) {
		return c.base[i]
	}
	return c.tail[i-len(c.base)]
}

func (c *col[T]) add(v T) { c.tail = append(c.tail, v) }

// publish returns a read-only copy for a published view: the base is
// shared and the tail is length-clipped. The writer's later appends write
// tail slots at indices >= the clipped length, which view readers never
// access, so no copy is needed at all.
func (c *col[T]) publish() col[T] {
	return col[T]{base: c.base, tail: c.tail[:len(c.tail):len(c.tail)]}
}

// cloneShared returns a copy that shares the read-only base and
// deep-copies the tail.
func (c *col[T]) cloneShared() col[T] {
	return col[T]{base: c.base, tail: append([]T(nil), c.tail...)}
}

// bitset is a packed liveness set. It is always heap-owned: snapshot opens
// and published views copy it (one bit per node, so the copy stays
// trivially small) because kill/revive overwrite bits below the append
// watermark and word-granular sharing would race on the boundary word.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// setGrow sets bit i, extending the set as needed (node append path).
func (b *bitset) setGrow(i int) {
	for i>>6 >= len(*b) {
		*b = append(*b, 0)
	}
	b.set(i)
}

// adjHalf is one direction of adjacency: a frozen CSR base (offs/edges)
// covering the first baseN node slots, chunked per-node append lists for
// slots added after the base was built, and a rare spill map for edges
// added to base-covered nodes post-load.
//
// Graphs that publish views mid-ingest call thaw() first, which folds the
// CSR base and spill into the chunked tail (each slot aliasing a clipped
// CSR subslice), leaving baseN == 0 — after that, every mutation goes
// through the chunked column's copy-on-write and the publish protocol
// covers adjacency exactly like any other column.
type adjHalf struct {
	baseN int
	offs  []uint32 // len baseN+1; read-only, may alias mapped memory
	edges []NodeID // read-only, may alias mapped memory
	spill map[NodeID][]NodeID
	tail  chunked[[]NodeID]
	// slab is the unclaimed rest of the array new tail lists take their
	// first slots from. It belongs to this writer alone: published views
	// and clones never carry it.
	slab []NodeID
}

const (
	adjSlabSize   = 8192 // endpoints per slab array
	adjSlabWindow = 2    // slots a new list claims; most nodes have in-degree 2
)

// addSlot extends the adjacency to cover one appended node.
func (a *adjHalf) addSlot() { a.tail.add(nil) }

// add appends one edge endpoint to id's list. A tail list's first append
// claims a capacity-clipped adjSlabWindow-slot window of a shared slab
// instead of allocating. Appending to a list shared with a published view
// is safe: within capacity (a window included) the new endpoint lands at
// an index >= every view's recorded length, and past capacity the append
// reallocates; either way readers only see their own prefix.
func (a *adjHalf) add(id NodeID, to NodeID) {
	if int(id) < a.baseN {
		if a.spill == nil {
			a.spill = make(map[NodeID][]NodeID)
		}
		a.spill[id] = append(a.spill[id], to)
		return
	}
	p := a.tail.ptr(int(id) - a.baseN)
	if cap(*p) == 0 {
		if len(a.slab) < adjSlabWindow {
			a.slab = make([]NodeID, adjSlabSize)
		}
		*p = a.slab[:0:adjSlabWindow]
		a.slab = a.slab[adjSlabWindow:]
	}
	*p = append(*p, to)
}

// each iterates id's endpoints in append order.
func (a *adjHalf) each(id NodeID, fn func(NodeID) bool) {
	i := int(id)
	if i < a.baseN {
		for _, n := range a.edges[a.offs[i]:a.offs[i+1]] {
			if !fn(n) {
				return
			}
		}
		if a.spill != nil {
			for _, n := range a.spill[id] {
				if !fn(n) {
					return
				}
			}
		}
		return
	}
	for _, n := range a.tail.at(i - a.baseN) {
		if !fn(n) {
			return
		}
	}
}

// raw returns id's endpoints in append order. The fast paths return a
// capacity-clipped view of storage (a caller's append can never clobber a
// neighbor's edges); only a base node with spilled edges has its two
// parts joined in *buf.
func (a *adjHalf) raw(id NodeID, buf *[]NodeID) []NodeID {
	i := int(id)
	if i < a.baseN {
		lo, hi := a.offs[i], a.offs[i+1]
		s := a.edges[lo:hi:hi]
		if a.spill != nil {
			if sp := a.spill[id]; len(sp) > 0 {
				return joinAdj(buf, s, sp)
			}
		}
		return s
	}
	t := a.tail.at(i - a.baseN)
	return t[:len(t):len(t)]
}

// count returns id's endpoint count.
func (a *adjHalf) count(id NodeID) int {
	i := int(id)
	if i < a.baseN {
		n := int(a.offs[i+1] - a.offs[i])
		if a.spill != nil {
			n += len(a.spill[id])
		}
		return n
	}
	return len(a.tail.at(i - a.baseN))
}

// thaw folds the CSR base and spill map into the chunked tail so the whole
// adjacency is covered by the copy-on-write publish protocol. Slots
// without spilled edges alias capacity-clipped CSR subslices (no edge data
// is copied; an append reallocates the one list it touches), so thawing a
// mapped graph stays O(nodes) in block headers, not O(edges).
func (a *adjHalf) thaw() {
	if a.baseN == 0 {
		return
	}
	old := a.tail
	a.tail = chunked[[]NodeID]{epoch: 1}
	for i := 0; i < a.baseN; i++ {
		lo, hi := a.offs[i], a.offs[i+1]
		s := a.edges[lo:hi:hi]
		if sp := a.spill[NodeID(i)]; len(sp) > 0 {
			merged := make([]NodeID, 0, len(s)+len(sp))
			s = append(append(merged, s...), sp...)
		}
		a.tail.add(s)
	}
	for i := 0; i < old.len(); i++ {
		a.tail.add(old.at(i))
	}
	a.baseN, a.offs, a.edges, a.spill = 0, nil, nil, nil
}

// publish returns a read-only copy for a published view. The caller must
// have thawed first if the graph ingests concurrently with readers (the
// spill map cannot be shared with readers while the writer inserts).
func (a *adjHalf) publish() adjHalf {
	p := adjHalf{baseN: a.baseN, offs: a.offs, edges: a.edges, tail: a.tail.publish()}
	if a.spill != nil {
		p.spill = make(map[NodeID][]NodeID, len(a.spill))
		for id, l := range a.spill {
			p.spill[id] = l[:len(l):len(l)]
		}
	}
	return p
}

// cloneShared shares the immutable CSR base and deep-copies the mutable
// spill and tail lists (two independent writers must not share the
// append-able inner arrays).
func (a *adjHalf) cloneShared() adjHalf {
	c := adjHalf{baseN: a.baseN, offs: a.offs, edges: a.edges}
	if a.spill != nil {
		c.spill = make(map[NodeID][]NodeID, len(a.spill))
		for id, l := range a.spill {
			c.spill[id] = append([]NodeID(nil), l...)
		}
	}
	c.tail = chunked[[]NodeID]{epoch: 1}
	for i := 0; i < a.tail.len(); i++ {
		c.tail.add(append([]NodeID(nil), a.tail.at(i)...))
	}
	return c
}
