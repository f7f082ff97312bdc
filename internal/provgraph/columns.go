package provgraph

import "math/bits"

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
//     watermark (inv, valIx, invocation records, adjacency spans): an
//     epoch-published view shares the block table, and the writer's next
//     in-place write to a shared block copies just that block (~chunkSize
//     slots), never the whole column. This is what makes publishing a
//     point-in-time view O(blocks) instead of O(nodes).
//
// Adjacency (adjHalf) adds a third shape: a chunked column of
// pointer-free span words over append-only endpoint pages, so appending
// an edge allocates nothing but the occasional page and takes no GC
// write barrier.
//
// Either way, a graph opened from an mmap'd snapshot never writes through
// the mapping: flat bases copy-on-write wholesale (legacy set paths are
// gone), thawed chunked blocks alias the mapping with a stale epoch so
// the first write copies the block to the heap, and a thawed CSR's lists
// move to heap pages on their first append.

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
// covering the first baseN node slots, a span column for the slots added
// after the base was built, and a rare spill map for edges added to
// base-covered nodes post-load.
//
// The tail holds no pointers. Each slot is one adjSpan word locating its
// list in the half's endpoint pages, append-only arrays addressed as one
// 32-bit space (see adjSpan). A list has a power-of-two capacity of at
// least adjMinCap; the append that finds it full copies it to a fresh
// region of twice the size and moves the span, leaving the old region to
// the views that may still read it. The GC never scans the span column
// or the pages, and writing a span takes no write barrier.
//
// Graphs that publish views mid-ingest call thaw() first, which folds the
// CSR base and spill into the tail, leaving baseN == 0: each CSR list
// becomes a frozen span aliasing the CSR (registered as pages of its own;
// no edge is copied or written), which relocates on its first append.
// After that every mutation goes through the span column's copy-on-write,
// and the publish protocol covers adjacency exactly like any other column.
type adjHalf struct {
	baseN int
	offs  []uint32 // len baseN+1; read-only, may alias mapped memory
	edges []NodeID // read-only, may alias mapped memory
	spill map[NodeID][]NodeID
	tail  chunked[adjSpan]
	// pages[p] starts at address p<<adjPageShift and runs to the end of
	// the array it lies in, which may span several page entries (a list
	// larger than a page, a thawed CSR). An endpoint a published view's
	// span covers is never overwritten.
	pages [][]NodeID
	// frozenLo and frozenHi bound the addresses of a thawed CSR, whose
	// lists have no spare capacity and are never written.
	frozenLo, frozenHi uint32
	// next and end bound the free rest of the last small-list page. They
	// belong to this writer alone: published views never allocate, and
	// clones start a page of their own.
	next, end uint32
}

// adjSpan locates one tail list: the address of its first endpoint in
// the high 32 bits, its length in the low 32 bits. A list's capacity
// follows from its length (adjCap), or is its length for a frozen list.
type adjSpan uint64

func makeSpan(addr, n uint32) adjSpan { return adjSpan(addr)<<32 | adjSpan(n) }

func (s adjSpan) addr() uint32 { return uint32(s >> 32) }

func (s adjSpan) len() uint32 { return uint32(s) }

const (
	adjPageShift = 13 // endpoints per page: 8192
	adjPageSize  = 1 << adjPageShift
	adjPageMask  = adjPageSize - 1
	adjMinCap    = 2 // a new list's capacity; most nodes have in-degree 2
)

// adjCap is the capacity of a non-frozen list of n > 0 endpoints: the
// least power of two >= n, and at least adjMinCap.
func adjCap(n uint32) uint32 {
	return max(adjMinCap, uint32(1)<<bits.Len32(n-1))
}

// at returns the endpoint storage from address addr on, up to the end of
// its array.
func (a *adjHalf) at(addr uint32) []NodeID {
	return a.pages[addr>>adjPageShift][addr&adjPageMask:]
}

// list returns the endpoints s locates, capacity-clipped so a caller's
// append can never clobber a neighbor's.
func (a *adjHalf) list(s adjSpan) []NodeID {
	n := s.len()
	if n == 0 {
		return nil
	}
	return a.at(s.addr())[:n:n]
}

// alloc reserves n endpoints (a power of two) and returns their address.
// A list of up to a page goes into the current small-list page, or a new
// one; a larger one gets an array of its own, registered as n/adjPageSize
// page entries.
func (a *adjHalf) alloc(n uint32) uint32 {
	if n > adjPageSize {
		return a.addPages(make([]NodeID, n))
	}
	if a.end-a.next < n {
		a.next = a.addPages(make([]NodeID, adjPageSize))
		a.end = a.next + adjPageSize
	}
	addr := a.next
	a.next += n
	return addr
}

// addPages registers arr as page entries starting at a fresh page and
// returns its first address.
func (a *adjHalf) addPages(arr []NodeID) uint32 {
	first := len(a.pages)
	if uint64(first)<<adjPageShift+uint64(len(arr)) >= 1<<32 {
		panic("provgraph: adjacency endpoint address space exhausted")
	}
	for lo := 0; lo < len(arr); lo += adjPageSize {
		a.pages = append(a.pages, arr[lo:])
	}
	return uint32(first) << adjPageShift
}

// addSlot extends the adjacency to cover one appended node.
func (a *adjHalf) addSlot() { a.tail.add(0) }

// add appends one edge endpoint to id's list. Appending to a list shared
// with a published view is safe: within capacity the new endpoint lands
// past every view's recorded length, and a full or frozen list moves to a
// fresh region (a new span word, written copy-on-write); either way
// readers only see their own prefix.
func (a *adjHalf) add(id NodeID, to NodeID) {
	if int(id) < a.baseN {
		if a.spill == nil {
			a.spill = make(map[NodeID][]NodeID)
		}
		a.spill[id] = append(a.spill[id], to)
		return
	}
	p := a.tail.ptr(int(id) - a.baseN)
	addr, n := p.addr(), p.len()
	full := n == 0 || n >= adjMinCap && n&(n-1) == 0 // a power of two: at capacity
	if full || addr >= a.frozenLo && addr < a.frozenHi {
		na := a.alloc(adjCap(n + 1))
		if n > 0 {
			copy(a.at(na), a.at(addr)[:n])
		}
		addr = na
	}
	a.at(addr)[n] = to
	*p = makeSpan(addr, n+1)
}

// each iterates id's endpoints in append order.
func (a *adjHalf) each(id NodeID, fn func(NodeID) bool) {
	for _, n := range a.raw(id, nil) {
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
	return a.list(a.tail.at(i - a.baseN))
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
	return int(a.tail.at(i - a.baseN).len())
}

// thaw folds the CSR base and spill map into the tail so the whole
// adjacency is covered by the copy-on-write publish protocol. The CSR is
// registered as frozen pages and each slot without spilled edges becomes
// a frozen span over its CSR list: no edge data is copied or written, so
// thawing a mapped graph costs O(nodes) span words, not O(edges). A slot
// with spilled edges gets its two parts copied into one list.
func (a *adjHalf) thaw() {
	if a.baseN == 0 {
		return
	}
	old := a.tail
	a.tail = chunked[adjSpan]{epoch: 1}
	if len(a.edges) > 0 {
		a.frozenLo = a.addPages(a.edges)
		a.frozenHi = a.frozenLo + uint32(len(a.edges))
	}
	for i := 0; i < a.baseN; i++ {
		lo, hi := a.offs[i], a.offs[i+1]
		span := makeSpan(a.frozenLo+lo, hi-lo)
		if sp := a.spill[NodeID(i)]; len(sp) > 0 {
			n := hi - lo + uint32(len(sp))
			addr := a.alloc(adjCap(n))
			copy(a.at(addr)[copy(a.at(addr), a.edges[lo:hi]):], sp)
			span = makeSpan(addr, n)
		}
		a.tail.add(span)
	}
	for i := 0; i < old.len(); i++ {
		a.tail.add(old.at(i))
	}
	a.baseN, a.offs, a.edges, a.spill = 0, nil, nil, nil
}

// publish returns a read-only copy for a published view. The caller must
// have thawed first if the graph ingests concurrently with readers (the
// spill map cannot be shared with readers while the writer inserts). The
// page table is length-clipped: the writer's later pages land past it.
func (a *adjHalf) publish() adjHalf {
	p := adjHalf{
		baseN: a.baseN, offs: a.offs, edges: a.edges,
		tail:     a.tail.publish(),
		pages:    a.pages[:len(a.pages):len(a.pages)],
		frozenLo: a.frozenLo, frozenHi: a.frozenHi,
	}
	if a.spill != nil {
		p.spill = make(map[NodeID][]NodeID, len(a.spill))
		for id, l := range a.spill {
			p.spill[id] = l[:len(l):len(l)]
		}
	}
	return p
}

// cloneShared shares the immutable CSR base and the frozen pages, and
// copies the mutable spill and tail lists into pages of the clone's own
// (two independent writers must not share append-able storage).
func (a *adjHalf) cloneShared() adjHalf {
	c := adjHalf{baseN: a.baseN, offs: a.offs, edges: a.edges, frozenLo: a.frozenLo, frozenHi: a.frozenHi}
	if a.spill != nil {
		c.spill = make(map[NodeID][]NodeID, len(a.spill))
		for id, l := range a.spill {
			c.spill[id] = append([]NodeID(nil), l...)
		}
	}
	if a.frozenHi > a.frozenLo {
		// The clone shares the frozen page entries. It leaves the others
		// below them empty: they hold only lists the loop below copies.
		lo, hi := a.frozenLo>>adjPageShift, (a.frozenHi-1)>>adjPageShift+1
		c.pages = make([][]NodeID, hi)
		copy(c.pages[lo:], a.pages[lo:hi])
	}
	c.tail = chunked[adjSpan]{epoch: 1}
	for i := 0; i < a.tail.len(); i++ {
		s := a.tail.at(i)
		if n := s.len(); n > 0 && (s.addr() < a.frozenLo || s.addr() >= a.frozenHi) {
			addr := c.alloc(adjCap(n))
			copy(c.at(addr), a.list(s))
			s = makeSpan(addr, n)
		}
		c.tail.add(s)
	}
	return c
}
