package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sort"
	"unsafe"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
)

// LPSK format v3: the graph's columnar arrays written verbatim.
//
//	header   "LPSK" 0x03 pad[3]                     (8 bytes)
//	sections fixed order, each 8-byte aligned, little-endian
//	footer   u64 sectionCount
//	         sectionCount × (u64 offset, u64 byteLen)   absolute file offsets
//	         u64 × 6: nodes, edges, invocations, symbols, values, dead
//	trailer  u32 crc32(footer) · u32 footerLen · "LPK3"  (12 bytes)
//
// The trailer anchors the footer from the end of the file, so Open reads
// 12 bytes, then the footer, and every section is a pointer cast into the
// mapping — no per-node decode. Variable-width payloads (values, output
// relations) keep the varint codec inside a blob section with an offset
// column, decoded per value on access. Postings are CSR sections keyed by
// symbol id; the symbol table is sorted, so label lookup on a mapped
// snapshot is a binary search over file memory.
const (
	secClass = iota
	secType
	secOp
	secLabel
	secInv
	secValIx
	secAlive
	secOutOffs
	secOutEdges
	secInOffs
	secInEdges
	secSymOffs
	secSymSlab
	secInvModule
	secInvNodeName
	secInvExec
	secInvMNode
	secAnchorInOffs
	secAnchorIn
	secAnchorOutOffs
	secAnchorOut
	secAnchorStOffs
	secAnchorSt
	secValOffs
	secValBlob
	secOutputsBlob
	secPostTypeOffs
	secPostTypeIDs
	secPostOpOffs
	secPostOpIDs
	secPostLabelSyms
	secPostLabelOffs
	secPostLabelIDs
	secPostModuleSyms
	secPostModuleOffs
	secPostModuleIDs
	secPostModInvSyms
	secPostModInvOffs
	secPostModInvIDs
	numSections
)

var v3Trailer = []byte{'L', 'P', 'K', '3'}

const v3TrailerLen = 12 // crc32 + footerLen + magic

// hostLittle reports whether the running machine is little-endian; when it
// is, section reads and writes are pointer casts instead of element loops.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// hostBytes reinterprets a scalar slice as its in-memory bytes.
func hostBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// leBytes returns s encoded little-endian (a zero-copy view on LE hosts).
func leBytes[T any](s []T) []byte {
	b := hostBytes(s)
	if hostLittle {
		return b
	}
	sz := int(unsafe.Sizeof(*new(T)))
	out := make([]byte, len(b))
	for i := 0; i < len(b); i += sz {
		for j := 0; j < sz; j++ {
			out[i+j] = b[i+sz-1-j]
		}
	}
	return out
}

// leSlice reinterprets little-endian section bytes as a scalar slice: a
// zero-copy cast on aligned LE hosts, an element-wise copy otherwise.
func leSlice[T any](b []byte) []T {
	sz := int(unsafe.Sizeof(*new(T)))
	n := len(b) / sz
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%uintptr(unsafe.Alignof(*new(T))) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	ob := hostBytes(out)
	if hostLittle {
		copy(ob, b[:n*sz])
	} else {
		for i := 0; i < n*sz; i += sz {
			for j := 0; j < sz; j++ {
				ob[i+j] = b[i+sz-1-j]
			}
		}
	}
	return out
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// writeV3 serializes the snapshot as format v3. The graph is frozen to
// its columnar form (which also computes the sorted symbol table), the
// postings are grouped from the frozen columns, and every section streams
// out as raw little-endian bytes.
func writeV3(out io.Writer, s *Snapshot) error {
	fr := provgraph.Freeze(s.Graph)
	n := fr.NumNodes

	// Value and outputs blobs keep the varint codec.
	var vw, ow writer // in-memory: the blobs are sections of their own
	valOffs := make([]uint32, 1, fr.NumValues+1)
	for i := 0; i < fr.NumValues; i++ {
		vw.value(fr.ValueAt(i))
		valOffs = append(valOffs, uint32(len(vw.buf)))
	}
	writeOutputs(&ow, s.Outputs)
	p := buildPostings(fr)

	secs := make([][]byte, numSections)
	secs[secClass] = leBytes(fr.Class)
	secs[secType] = leBytes(fr.Typ)
	secs[secOp] = leBytes(fr.Op)
	secs[secLabel] = leBytes(fr.Label)
	secs[secInv] = leBytes(fr.Inv)
	secs[secValIx] = leBytes(fr.ValIx)
	secs[secAlive] = leBytes(fr.Alive)
	secs[secOutOffs] = leBytes(fr.OutOffs)
	secs[secOutEdges] = leBytes(fr.OutEdges)
	secs[secInOffs] = leBytes(fr.InOffs)
	secs[secInEdges] = leBytes(fr.InEdges)
	secs[secSymOffs] = leBytes(fr.SymOffs)
	secs[secSymSlab] = fr.SymSlab
	secs[secInvModule] = leBytes(fr.InvModule)
	secs[secInvNodeName] = leBytes(fr.InvNodeName)
	secs[secInvExec] = leBytes(fr.InvExec)
	secs[secInvMNode] = leBytes(fr.InvMNode)
	secs[secAnchorInOffs] = leBytes(fr.AnchorInOffs)
	secs[secAnchorIn] = leBytes(fr.AnchorIn)
	secs[secAnchorOutOffs] = leBytes(fr.AnchorOutOffs)
	secs[secAnchorOut] = leBytes(fr.AnchorOut)
	secs[secAnchorStOffs] = leBytes(fr.AnchorStOffs)
	secs[secAnchorSt] = leBytes(fr.AnchorSt)
	secs[secValOffs] = leBytes(valOffs)
	secs[secValBlob] = vw.buf
	secs[secOutputsBlob] = ow.buf
	secs[secPostTypeOffs] = leBytes(p.typeOffs)
	secs[secPostTypeIDs] = leBytes(p.typeIDs)
	secs[secPostOpOffs] = leBytes(p.opOffs)
	secs[secPostOpIDs] = leBytes(p.opIDs)
	secs[secPostLabelSyms] = leBytes(p.labelSyms)
	secs[secPostLabelOffs] = leBytes(p.labelOffs)
	secs[secPostLabelIDs] = leBytes(p.labelIDs)
	secs[secPostModuleSyms] = leBytes(p.moduleSyms)
	secs[secPostModuleOffs] = leBytes(p.moduleOffs)
	secs[secPostModuleIDs] = leBytes(p.moduleIDs)
	secs[secPostModInvSyms] = leBytes(p.modInvSyms)
	secs[secPostModInvOffs] = leBytes(p.modInvOffs)
	secs[secPostModInvIDs] = leBytes(p.modInvIDs)

	// Header, then sections with alignment padding, tracking offsets.
	header := [8]byte{'L', 'P', 'S', 'K', versionColumnar}
	if _, err := out.Write(header[:]); err != nil {
		return err
	}
	off := uint64(8)
	var pad [8]byte
	footer := make([]byte, 8+numSections*16+6*8)
	putU64(footer, numSections)
	for i, sec := range secs {
		if rem := off % 8; rem != 0 {
			if _, err := out.Write(pad[:8-rem]); err != nil {
				return err
			}
			off += 8 - rem
		}
		putU64(footer[8+i*16:], off)
		putU64(footer[8+i*16+8:], uint64(len(sec)))
		if _, err := out.Write(sec); err != nil {
			return err
		}
		off += uint64(len(sec))
	}
	counts := []uint64{
		uint64(n), uint64(len(fr.OutEdges)), uint64(fr.NumInvocations()),
		uint64(fr.NumSyms()), uint64(fr.NumValues), uint64(fr.Dead),
	}
	for i, c := range counts {
		putU64(footer[8+numSections*16+i*8:], c)
	}
	if _, err := out.Write(footer); err != nil {
		return err
	}
	trailer := make([]byte, v3TrailerLen)
	putU64(trailer, uint64(crc32.ChecksumIEEE(footer))|uint64(len(footer))<<32)
	copy(trailer[8:], v3Trailer)
	_, err := out.Write(trailer)
	return err
}

// buildPostings groups a frozen graph's columns into the postings that
// writeV3 persists and BuildPostings serves from memory. Types and ops
// bucket over the enum ranges; labels and modules bucket by symbol id
// (ascending, so the CSR key lists come out sorted for binary search).
// It returns the struct by value, so writeV3 keeps it on the stack.
func buildPostings(fr *provgraph.Frozen) colPostings {
	n := fr.NumNodes
	p := colPostings{
		coverage: n, numInvs: fr.NumInvocations(), numSyms: fr.NumSyms(),
		symOffs: fr.SymOffs, symSlab: fr.SymSlab,
	}
	p.typeOffs, p.typeIDs = groupByKey(n, int(provgraph.TypeZoom)+1, func(i int) int { return int(fr.Typ[i]) })
	p.opOffs, p.opIDs = groupByKey(n, int(provgraph.OpConst)+1, func(i int) int { return int(fr.Op[i]) })
	p.labelSyms, p.labelOffs, p.labelIDs = groupBySym[provgraph.NodeID](n, p.numSyms, func(i int) (uint32, bool) {
		return fr.Label[i], fr.Label[i] != 0 // empty labels are not indexed
	})
	p.moduleSyms, p.moduleOffs, p.moduleIDs = groupBySym[provgraph.NodeID](n, p.numSyms, func(i int) (uint32, bool) {
		if inv := fr.Inv[i]; inv >= 0 {
			return fr.InvModule[inv], true
		}
		return 0, false
	})
	p.modInvSyms, p.modInvOffs, p.modInvIDs = groupBySym[provgraph.InvID](p.numInvs, p.numSyms, func(i int) (uint32, bool) {
		return fr.InvModule[i], true
	})
	return p
}

// BuildPostings computes the postings of an in-memory graph: the columns
// a v3 snapshot of g would persist, served from the heap.
func BuildPostings(g *provgraph.Graph) Postings {
	p := buildPostings(provgraph.Freeze(g))
	return &p
}

// groupByKey buckets node ids 0..n-1 by a small integer key into one CSR.
func groupByKey(n, buckets int, key func(int) int) ([]uint32, []provgraph.NodeID) {
	offs := make([]uint32, buckets+1)
	for i := 0; i < n; i++ {
		offs[key(i)+1]++
	}
	for k := 0; k < buckets; k++ {
		offs[k+1] += offs[k]
	}
	ids := make([]provgraph.NodeID, n)
	next := append([]uint32(nil), offs[:buckets]...)
	for i := 0; i < n; i++ {
		k := key(i)
		ids[next[k]] = provgraph.NodeID(i)
		next[k]++
	}
	return offs, ids
}

// groupBySym buckets ids 0..n-1 by symbol id into a sparse CSR: syms lists
// the occurring symbols ascending, offs/ids hold their postings. Symbol
// ids are dense below numSyms, so this is groupByKey's counting sort with
// the empty buckets dropped from the key list. Ids come out ascending per
// symbol because i runs ascending.
func groupBySym[ID ~int32](n, numSyms int, key func(int) (uint32, bool)) ([]uint32, []uint32, []ID) {
	next := make([]uint32, numSyms) // per symbol: its count, then its fill slot
	total := 0
	for i := 0; i < n; i++ {
		if s, ok := key(i); ok {
			next[s]++
			total++
		}
	}
	var syms []uint32
	offs := []uint32{0}
	for s, c := range next {
		if c != 0 {
			next[s] = offs[len(offs)-1]
			syms = append(syms, uint32(s))
			offs = append(offs, next[s]+c)
		}
	}
	ids := make([]ID, total)
	for i := 0; i < n; i++ {
		if s, ok := key(i); ok {
			ids[next[s]] = ID(i)
			next[s]++
		}
	}
	return syms, offs, ids
}

// v3Sections is the parsed section table of one v3 payload.
type v3Sections struct {
	secs                                 [numSections][]byte
	nodes, edges, invs, syms, vals, dead int
}

// parseV3Footer validates the trailer and footer and slices the sections.
// Both the strict and the mapped open run it: whatever else a mapped open
// trusts, section bounds and the footer checksum are always verified, so a
// truncated or garbage file fails before any pointer is cast.
func parseV3Footer(data []byte) (*v3Sections, error) {
	if len(data) < 8+8+v3TrailerLen {
		return nil, fmt.Errorf("store: v3 snapshot truncated (%d bytes)", len(data))
	}
	tr := data[len(data)-v3TrailerLen:]
	if !bytes.Equal(tr[8:], v3Trailer) {
		return nil, fmt.Errorf("store: v3 trailer magic missing (truncated or corrupt snapshot)")
	}
	crc := getU32(tr)
	flen := int(getU32(tr[4:]))
	fstart := len(data) - v3TrailerLen - flen
	if flen < 8+6*8 || fstart < 8 {
		return nil, fmt.Errorf("store: v3 footer length %d out of range", flen)
	}
	footer := data[fstart : fstart+flen]
	if crc32.ChecksumIEEE(footer) != crc {
		return nil, fmt.Errorf("store: v3 footer checksum mismatch")
	}
	secCount := getU64(footer)
	if secCount != numSections {
		return nil, fmt.Errorf("store: v3 snapshot has %d sections (this build expects %d)", secCount, numSections)
	}
	if flen != 8+numSections*16+6*8 {
		return nil, fmt.Errorf("store: v3 footer length %d inconsistent with section count", flen)
	}
	v := &v3Sections{}
	for i := 0; i < numSections; i++ {
		off := getU64(footer[8+i*16:])
		length := getU64(footer[8+i*16+8:])
		if off%8 != 0 || off < 8 || length > uint64(fstart) || off > uint64(fstart)-length {
			return nil, fmt.Errorf("store: v3 section %d out of bounds", i)
		}
		v.secs[i] = data[off : off+length]
	}
	counts := footer[8+numSections*16:]
	nums := [6]int{}
	for i := range nums {
		c := getU64(counts[i*8:])
		if c > maxLen {
			return nil, fmt.Errorf("store: v3 count %d exceeds limit", c)
		}
		nums[i] = int(c)
	}
	v.nodes, v.edges, v.invs, v.syms, v.vals, v.dead = nums[0], nums[1], nums[2], nums[3], nums[4], nums[5]

	// Fixed-width section lengths must match the counts exactly.
	n, e, iv, s, val := v.nodes, v.edges, v.invs, v.syms, v.vals
	wantLens := [][2]int{
		{secClass, n}, {secType, n}, {secOp, n},
		{secLabel, 4 * n}, {secInv, 4 * n}, {secValIx, 4 * n},
		{secAlive, 8 * ((n + 63) / 64)},
		{secOutOffs, 4 * (n + 1)}, {secOutEdges, 4 * e},
		{secInOffs, 4 * (n + 1)}, {secInEdges, 4 * e},
		{secSymOffs, 4 * (s + 1)},
		{secInvModule, 4 * iv}, {secInvNodeName, 4 * iv},
		{secInvExec, 4 * iv}, {secInvMNode, 4 * iv},
		{secAnchorInOffs, 4 * (iv + 1)}, {secAnchorOutOffs, 4 * (iv + 1)}, {secAnchorStOffs, 4 * (iv + 1)},
		{secValOffs, 4 * (val + 1)},
		{secPostTypeOffs, 4 * (int(provgraph.TypeZoom) + 2)},
		{secPostOpOffs, 4 * (int(provgraph.OpConst) + 2)},
	}
	for _, wl := range wantLens {
		if len(v.secs[wl[0]]) != wl[1] {
			return nil, fmt.Errorf("store: v3 section %d has %d bytes, want %d", wl[0], len(v.secs[wl[0]]), wl[1])
		}
	}
	// CSR key/offset pairs must be mutually consistent.
	for _, pair := range [][2]int{
		{secPostLabelSyms, secPostLabelOffs},
		{secPostModuleSyms, secPostModuleOffs},
		{secPostModInvSyms, secPostModInvOffs},
	} {
		if len(v.secs[pair[1]]) != len(v.secs[pair[0]])+4 || len(v.secs[pair[0]])%4 != 0 {
			return nil, fmt.Errorf("store: v3 postings key/offset sections inconsistent")
		}
	}
	for _, sec := range []int{secAnchorIn, secAnchorSt, secAnchorOut, secPostTypeIDs,
		secPostOpIDs, secPostLabelIDs, secPostModuleIDs, secPostModInvIDs} {
		if len(v.secs[sec])%4 != 0 {
			return nil, fmt.Errorf("store: v3 id section %d not 4-byte aligned", sec)
		}
	}
	return v, nil
}

// checkOffsets verifies an offset column is monotone and lands on size.
func checkOffsets(offs []uint32, size int, what string) error {
	if len(offs) == 0 || offs[0] != 0 || int(offs[len(offs)-1]) != size {
		return fmt.Errorf("store: v3 %s offsets do not cover the section", what)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return fmt.Errorf("store: v3 %s offsets not monotone", what)
		}
	}
	return nil
}

func checkIDs(ids []provgraph.NodeID, n int, what string) error {
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("store: v3 %s id out of range", what)
		}
	}
	return nil
}

func checkAscending(ids []provgraph.NodeID, what string) error {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return fmt.Errorf("store: v3 %s postings not strictly ascending", what)
		}
	}
	return nil
}

// parseV3 reconstructs a snapshot from a v3 payload. data is the entire
// file, header included (it may alias an mmap, pinned by mapRef).
//
// strict mode — the Read/Load/fuzz path for bytes of unknown origin —
// validates every cross-section invariant and decodes all values and
// output relations eagerly, so a malformed file fails the load instead of
// panicking in the query layer. The mapped path (LoadMapped) trusts the
// file past the footer checks: it is for snapshots this process (or a
// peer) wrote, where per-element validation would defeat the
// decode-free open.
func parseV3(data []byte, strict bool, mapRef any) (*Snapshot, error) {
	v, err := parseV3Footer(data)
	if err != nil {
		return nil, err
	}
	n, ninv, nsym, nval := v.nodes, v.invs, v.syms, v.vals

	fr := &provgraph.Frozen{
		NumNodes:      n,
		Class:         leSlice[provgraph.Class](v.secs[secClass]),
		Typ:           leSlice[provgraph.Type](v.secs[secType]),
		Op:            leSlice[provgraph.Op](v.secs[secOp]),
		Label:         leSlice[uint32](v.secs[secLabel]),
		Inv:           leSlice[provgraph.InvID](v.secs[secInv]),
		ValIx:         leSlice[int32](v.secs[secValIx]),
		Alive:         leSlice[uint64](v.secs[secAlive]),
		Dead:          v.dead,
		OutOffs:       leSlice[uint32](v.secs[secOutOffs]),
		OutEdges:      leSlice[provgraph.NodeID](v.secs[secOutEdges]),
		InOffs:        leSlice[uint32](v.secs[secInOffs]),
		InEdges:       leSlice[provgraph.NodeID](v.secs[secInEdges]),
		SymOffs:       leSlice[uint32](v.secs[secSymOffs]),
		SymSlab:       v.secs[secSymSlab],
		InvModule:     leSlice[uint32](v.secs[secInvModule]),
		InvNodeName:   leSlice[uint32](v.secs[secInvNodeName]),
		InvExec:       leSlice[int32](v.secs[secInvExec]),
		InvMNode:      leSlice[provgraph.NodeID](v.secs[secInvMNode]),
		AnchorInOffs:  leSlice[uint32](v.secs[secAnchorInOffs]),
		AnchorIn:      leSlice[provgraph.NodeID](v.secs[secAnchorIn]),
		AnchorOutOffs: leSlice[uint32](v.secs[secAnchorOutOffs]),
		AnchorOut:     leSlice[provgraph.NodeID](v.secs[secAnchorOut]),
		AnchorStOffs:  leSlice[uint32](v.secs[secAnchorStOffs]),
		AnchorSt:      leSlice[provgraph.NodeID](v.secs[secAnchorSt]),
		NumValues:     nval,
	}
	valOffs := leSlice[uint32](v.secs[secValOffs])
	valBlob := v.secs[secValBlob]

	if strict {
		if err := validateV3(v, fr, valOffs, valBlob); err != nil {
			return nil, err
		}
	}

	if strict {
		// Decode every value eagerly; corruption fails the load here.
		vals := make([]nested.Value, nval)
		for i := 0; i < nval; i++ {
			r := newReader(bytes.NewReader(valBlob[valOffs[i]:valOffs[i+1]]))
			if vals[i], err = r.value(); err != nil {
				return nil, fmt.Errorf("store: v3 value %d: %w", i, err)
			}
		}
		fr.ValueAt = func(i int) nested.Value { return vals[i] }
	} else {
		// Lazy decode straight from the (trusted) blob. A decode failure
		// on a trusted mapped file yields Null rather than a panic.
		fr.ValueAt = func(i int) nested.Value {
			r := newReader(bytes.NewReader(valBlob[valOffs[i]:valOffs[i+1]]))
			val, err := r.value()
			runtime.KeepAlive(mapRef)
			if err != nil {
				return nested.Null()
			}
			return val
		}
	}

	snap := &Snapshot{
		Graph: provgraph.FromFrozen(fr, mapRef),
		Postings: &colPostings{
			coverage: n, numInvs: ninv, numSyms: nsym,
			symOffs: fr.SymOffs, symSlab: fr.SymSlab,
			typeOffs:   leSlice[uint32](v.secs[secPostTypeOffs]),
			typeIDs:    leSlice[provgraph.NodeID](v.secs[secPostTypeIDs]),
			opOffs:     leSlice[uint32](v.secs[secPostOpOffs]),
			opIDs:      leSlice[provgraph.NodeID](v.secs[secPostOpIDs]),
			labelSyms:  leSlice[uint32](v.secs[secPostLabelSyms]),
			labelOffs:  leSlice[uint32](v.secs[secPostLabelOffs]),
			labelIDs:   leSlice[provgraph.NodeID](v.secs[secPostLabelIDs]),
			moduleSyms: leSlice[uint32](v.secs[secPostModuleSyms]),
			moduleOffs: leSlice[uint32](v.secs[secPostModuleOffs]),
			moduleIDs:  leSlice[provgraph.NodeID](v.secs[secPostModuleIDs]),
			modInvSyms: leSlice[uint32](v.secs[secPostModInvSyms]),
			modInvOffs: leSlice[uint32](v.secs[secPostModInvOffs]),
			modInvIDs:  leSlice[provgraph.InvID](v.secs[secPostModInvIDs]),
			mapRef:     mapRef,
		},
	}
	outBlob := v.secs[secOutputsBlob]
	if strict {
		outs, err := readOutputs(newReader(bytes.NewReader(outBlob)))
		if err != nil {
			return nil, err
		}
		snap.Outputs = outs
	} else {
		snap.LazyOutputs = func() ([]RelationDump, error) {
			defer runtime.KeepAlive(mapRef)
			return readOutputs(newReader(bytes.NewReader(outBlob)))
		}
	}
	return snap, nil
}

// validateV3 performs the strict cross-section checks: CSR monotonicity,
// id ranges, symbol sortedness, liveness accounting, and postings order.
func validateV3(v *v3Sections, fr *provgraph.Frozen, valOffs []uint32, valBlob []byte) error {
	n, ninv, nsym, nval := v.nodes, v.invs, v.syms, v.vals
	if err := checkOffsets(fr.OutOffs, v.edges, "out-edge"); err != nil {
		return err
	}
	if err := checkOffsets(fr.InOffs, v.edges, "in-edge"); err != nil {
		return err
	}
	if err := checkIDs(fr.OutEdges, n, "out-edge"); err != nil {
		return err
	}
	if err := checkIDs(fr.InEdges, n, "in-edge"); err != nil {
		return err
	}
	if err := checkOffsets(fr.SymOffs, len(fr.SymSlab), "symbol"); err != nil {
		return err
	}
	if nsym < 1 || fr.SymOffs[1] != 0 {
		return fmt.Errorf("store: v3 symbol 0 must be the empty string")
	}
	for i := 2; i < nsym; i++ {
		if bytes.Compare(fr.Sym(uint32(i-1)), fr.Sym(uint32(i))) >= 0 {
			return fmt.Errorf("store: v3 symbol table not sorted")
		}
	}
	for i := 0; i < n; i++ {
		if !provgraph.KnownKind(fr.Class[i], fr.Typ[i], fr.Op[i]) {
			return fmt.Errorf("store: v3 node %d has an unknown class, type or op", i)
		}
		if int(fr.Label[i]) >= nsym {
			return fmt.Errorf("store: v3 node label symbol out of range")
		}
		if fr.Inv[i] < -1 || int(fr.Inv[i]) >= ninv {
			return fmt.Errorf("store: node invocation reference out of range")
		}
		if fr.ValIx[i] < -1 || int(fr.ValIx[i]) >= nval {
			return fmt.Errorf("store: v3 node value index out of range")
		}
	}
	dead := 0
	for i := 0; i < n; i++ {
		if fr.Alive[i>>6]&(1<<(uint(i)&63)) == 0 {
			dead++
		}
	}
	if dead != v.dead {
		return fmt.Errorf("store: v3 dead count %d disagrees with liveness bits (%d)", v.dead, dead)
	}
	for i := n; i < len(fr.Alive)*64; i++ {
		if fr.Alive[i>>6]&(1<<(uint(i)&63)) != 0 {
			return fmt.Errorf("store: v3 liveness bits set beyond node count")
		}
	}
	for i := 0; i < ninv; i++ {
		if int(fr.InvModule[i]) >= nsym || int(fr.InvNodeName[i]) >= nsym {
			return fmt.Errorf("store: v3 invocation symbol out of range")
		}
		if int(fr.InvMNode[i]) >= n || fr.InvMNode[i] < 0 {
			return fmt.Errorf("store: invocation m-node out of range")
		}
	}
	for _, a := range []struct {
		offs []uint32
		ids  []provgraph.NodeID
		what string
	}{
		{fr.AnchorInOffs, fr.AnchorIn, "anchor-input"},
		{fr.AnchorOutOffs, fr.AnchorOut, "anchor-output"},
		{fr.AnchorStOffs, fr.AnchorSt, "anchor-state"},
	} {
		if err := checkOffsets(a.offs, len(a.ids), a.what); err != nil {
			return err
		}
		if err := checkIDs(a.ids, n, a.what); err != nil {
			return err
		}
	}
	if err := checkOffsets(valOffs, len(valBlob), "value"); err != nil {
		return err
	}

	// Postings: monotone offsets, in-range strictly-ascending ids, sorted
	// key lists, and full node coverage for the dense type/op groups.
	p := &colPostings{}
	p.typeOffs = leSlice[uint32](v.secs[secPostTypeOffs])
	p.opOffs = leSlice[uint32](v.secs[secPostOpOffs])
	typeIDs := leSlice[provgraph.NodeID](v.secs[secPostTypeIDs])
	opIDs := leSlice[provgraph.NodeID](v.secs[secPostOpIDs])
	if err := checkOffsets(p.typeOffs, len(typeIDs), "type-postings"); err != nil {
		return err
	}
	if err := checkOffsets(p.opOffs, len(opIDs), "op-postings"); err != nil {
		return err
	}
	if len(typeIDs) != n || len(opIDs) != n {
		return fmt.Errorf("store: v3 type/op postings do not cover all nodes")
	}
	for k := 0; k+1 < len(p.typeOffs); k++ {
		seg := typeIDs[p.typeOffs[k]:p.typeOffs[k+1]]
		if err := checkAscending(seg, "type"); err != nil {
			return err
		}
		if err := checkIDs(seg, n, "type-postings"); err != nil {
			return err
		}
	}
	for k := 0; k+1 < len(p.opOffs); k++ {
		seg := opIDs[p.opOffs[k]:p.opOffs[k+1]]
		if err := checkAscending(seg, "op"); err != nil {
			return err
		}
		if err := checkIDs(seg, n, "op-postings"); err != nil {
			return err
		}
	}
	for _, sp := range []struct {
		symsSec, offsSec, idsSec int
		what                     string
	}{
		{secPostLabelSyms, secPostLabelOffs, secPostLabelIDs, "label"},
		{secPostModuleSyms, secPostModuleOffs, secPostModuleIDs, "module"},
		{secPostModInvSyms, secPostModInvOffs, secPostModInvIDs, "module-invocation"},
	} {
		syms := leSlice[uint32](v.secs[sp.symsSec])
		offs := leSlice[uint32](v.secs[sp.offsSec])
		ids := leSlice[provgraph.NodeID](v.secs[sp.idsSec])
		if err := checkOffsets(offs, len(ids), sp.what+"-postings"); err != nil {
			return err
		}
		limit := n
		if sp.symsSec == secPostModInvSyms {
			limit = ninv
		}
		for j, s := range syms {
			if int(s) >= nsym {
				return fmt.Errorf("store: v3 %s postings symbol out of range", sp.what)
			}
			if j > 0 && syms[j-1] >= s {
				return fmt.Errorf("store: v3 %s postings symbols not ascending", sp.what)
			}
			seg := ids[offs[j]:offs[j+1]]
			if err := checkAscending(seg, sp.what); err != nil {
				return err
			}
			if err := checkIDs(seg, limit, sp.what+"-postings"); err != nil {
				return err
			}
		}
	}
	return nil
}

// colPostings serves Postings lookups from v3 section memory, or from the
// heap slices buildPostings grouped; string keys resolve by binary search
// over the sorted symbol table.
type colPostings struct {
	coverage, numInvs, numSyms int
	symOffs                    []uint32
	symSlab                    []byte

	typeOffs, opOffs       []uint32
	typeIDs, opIDs         []provgraph.NodeID
	labelSyms, labelOffs   []uint32
	labelIDs               []provgraph.NodeID
	moduleSyms, moduleOffs []uint32
	moduleIDs              []provgraph.NodeID
	modInvSyms, modInvOffs []uint32
	modInvIDs              []provgraph.InvID

	// mapRef pins the mapping backing the slices above, if any.
	mapRef any
}

// Coverage implements Postings.
func (p *colPostings) Coverage() int { return p.coverage }

// TypeIDs implements Postings.
func (p *colPostings) TypeIDs(t provgraph.Type) []provgraph.NodeID {
	if int(t)+1 >= len(p.typeOffs) {
		return nil
	}
	return p.typeIDs[p.typeOffs[t]:p.typeOffs[t+1]]
}

// OpIDs implements Postings.
func (p *colPostings) OpIDs(o provgraph.Op) []provgraph.NodeID {
	if int(o)+1 >= len(p.opOffs) {
		return nil
	}
	return p.opIDs[p.opOffs[o]:p.opOffs[o+1]]
}

// symOf resolves a string to its symbol id by binary search over the
// sorted non-empty symbols (ids 1..numSyms-1).
func (p *colPostings) symOf(s string) (uint32, bool) {
	if s == "" {
		return 0, p.numSyms > 0
	}
	j := sort.Search(p.numSyms-1, func(i int) bool {
		id := uint32(i + 1)
		return string(p.symSlab[p.symOffs[id]:p.symOffs[id+1]]) >= s
	})
	id := uint32(j + 1)
	if j < p.numSyms-1 && string(p.symSlab[p.symOffs[id]:p.symOffs[id+1]]) == s {
		return id, true
	}
	return 0, false
}

func searchSyms(syms []uint32, s uint32) (int, bool) {
	j := sort.Search(len(syms), func(i int) bool { return syms[i] >= s })
	return j, j < len(syms) && syms[j] == s
}

// LabelIDs implements Postings.
func (p *colPostings) LabelIDs(label string) []provgraph.NodeID {
	s, ok := p.symOf(label)
	if !ok {
		return nil
	}
	if j, ok := searchSyms(p.labelSyms, s); ok {
		return p.labelIDs[p.labelOffs[j]:p.labelOffs[j+1]]
	}
	return nil
}

// ModuleIDs implements Postings.
func (p *colPostings) ModuleIDs(module string) []provgraph.NodeID {
	s, ok := p.symOf(module)
	if !ok {
		return nil
	}
	if j, ok := searchSyms(p.moduleSyms, s); ok {
		return p.moduleIDs[p.moduleOffs[j]:p.moduleOffs[j+1]]
	}
	return nil
}

// ModuleInvocations implements Postings.
func (p *colPostings) ModuleInvocations(module string) []provgraph.InvID {
	s, ok := p.symOf(module)
	if !ok {
		return nil
	}
	if j, ok := searchSyms(p.modInvSyms, s); ok {
		return p.modInvIDs[p.modInvOffs[j]:p.modInvOffs[j+1]]
	}
	return nil
}
