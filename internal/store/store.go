package store

import (
	"fmt"
	"io"
	"os"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
)

// magic identifies Lipstick provenance files; a format version byte
// follows it.
var magic = []byte{'L', 'P', 'S', 'K'}

// Format versions. Version 1 is the original streamed graph+outputs
// payload; version 2 appended a streamed postings section. Version 3
// writes the graph's columnar arrays and postings verbatim (see v3.go),
// so opening a snapshot is an mmap plus pointer casts instead of a full
// decode. Only version 3 is written. Versions 1 and 2 are read-only: Read
// decodes their graph and outputs, skips a v2 postings section, and
// builds the postings from the decoded graph.
const (
	versionLegacy   = 1
	versionColumnar = 3
	currentVersion  = versionColumnar
)

// AnnotatedTuple is one provenance-annotated output tuple as written by
// the Provenance Tracker.
type AnnotatedTuple struct {
	Tuple *nested.Tuple
	Prov  provgraph.NodeID
	Mult  int
}

// RelationDump is the annotated content of one module-output relation of
// one execution.
type RelationDump struct {
	Execution int
	Node      string
	Relation  string
	Tuples    []AnnotatedTuple
}

// Snapshot is everything the Query Processor needs: the provenance graph
// and the annotated output relations that anchor queries.
//
// Every snapshot read from a file carries Postings: the persisted
// columns of a v3 file, or a build over the graph of a v1/v2 file. A
// snapshot assembled in memory may leave it nil; the query layer then
// builds it. LazyOutputs is set instead of Outputs by mapped v3 opens:
// the output relations decode on first use, keeping the open cheap.
type Snapshot struct {
	Graph       *provgraph.Graph
	Outputs     []RelationDump
	Postings    Postings
	LazyOutputs func() ([]RelationDump, error)
}

// Write serializes the snapshot in the current (columnar v3) format. The
// postings index is computed here, at write time, so readers never pay a
// graph rescan.
func Write(out io.Writer, s *Snapshot) error {
	return writeV3(out, s)
}

// writeOutputs encodes the output-relation dumps: the v3 outputs blob,
// and the same encoding the v1/v2 payloads carry.
func writeOutputs(w *writer, outs []RelationDump) {
	w.uvarint(uint64(len(outs)))
	for _, rd := range outs {
		w.uvarint(uint64(rd.Execution))
		w.str(rd.Node)
		w.str(rd.Relation)
		w.uvarint(uint64(len(rd.Tuples)))
		for _, t := range rd.Tuples {
			w.tuple(t.Tuple)
			w.varint(int64(t.Prov))
			w.uvarint(uint64(t.Mult))
		}
	}
}

// readOutputs decodes the output-relation dumps.
func readOutputs(r *reader) ([]RelationDump, error) {
	outCount, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if outCount > maxLen {
		return nil, fmt.Errorf("store: output count exceeds limit")
	}
	var outs []RelationDump
	for i := uint64(0); i < outCount; i++ {
		execIdx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		node, err := r.str()
		if err != nil {
			return nil, err
		}
		rel, err := r.str()
		if err != nil {
			return nil, err
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > maxLen {
			return nil, fmt.Errorf("store: relation size exceeds limit")
		}
		rd := RelationDump{Execution: int(execIdx), Node: node, Relation: rel}
		for j := uint64(0); j < n; j++ {
			tup, err := r.tuple()
			if err != nil {
				return nil, err
			}
			prov, err := r.varint()
			if err != nil {
				return nil, err
			}
			mult, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			rd.Tuples = append(rd.Tuples, AnnotatedTuple{Tuple: tup, Prov: provgraph.NodeID(prov), Mult: int(mult)})
		}
		outs = append(outs, rd)
	}
	return outs, nil
}

// Read deserializes a snapshot in any supported format (v1-v3). All
// bytes it decodes pass full validation — this is the path for data of
// unknown origin; see LoadMapped for the trusted decode-free open of v3
// files.
func Read(in io.Reader) (*Snapshot, error) {
	r := newReader(in)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(r.r, head); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	for i := range magic {
		if head[i] != magic[i] {
			return nil, fmt.Errorf("store: bad magic (not a lipstick snapshot)")
		}
	}
	version := head[len(magic)]
	if version > currentVersion {
		return nil, fmt.Errorf("store: snapshot written by a newer lipstick (format version %d; this build reads up to %d) — upgrade lipstick to query it", version, currentVersion)
	}
	if version < versionLegacy {
		return nil, fmt.Errorf("store: invalid format version %d", version)
	}
	if version == versionColumnar {
		// The columnar format is offset-addressed, not streamed: slurp the
		// rest and parse strictly (the buffered-read fallback path).
		rest, err := io.ReadAll(r.r)
		if err != nil {
			return nil, err
		}
		data := make([]byte, 0, len(head)+len(rest))
		data = append(append(data, head...), rest...)
		return parseV3(data, true, nil)
	}

	nodeCount, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nodeCount > maxLen {
		return nil, fmt.Errorf("store: node count %d exceeds limit", nodeCount)
	}
	nodes := make([]provgraph.Node, 0, capHint(nodeCount))
	for i := uint64(0); i < nodeCount; i++ {
		class, err := r.byte()
		if err != nil {
			return nil, err
		}
		typ, err := r.byte()
		if err != nil {
			return nil, err
		}
		op, err := r.byte()
		if err != nil {
			return nil, err
		}
		label, err := r.str()
		if err != nil {
			return nil, err
		}
		inv, err := r.varint()
		if err != nil {
			return nil, err
		}
		val, err := r.value()
		if err != nil {
			return nil, err
		}
		if !provgraph.KnownKind(provgraph.Class(class), provgraph.Type(typ), provgraph.Op(op)) {
			return nil, fmt.Errorf("store: node %d has an unknown class, type or op", i)
		}
		nodes = append(nodes, provgraph.Node{
			ID:    provgraph.NodeID(i),
			Class: provgraph.Class(class),
			Type:  provgraph.Type(typ),
			Op:    provgraph.Op(op),
			Label: label,
			Inv:   provgraph.InvID(inv),
			Value: val,
		})
	}

	edgeCount, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if edgeCount > maxLen {
		return nil, fmt.Errorf("store: edge count exceeds limit")
	}
	edges := make([][2]provgraph.NodeID, 0, capHint(edgeCount))
	for i := uint64(0); i < edgeCount; i++ {
		src, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		dst, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if src >= nodeCount || dst >= nodeCount {
			return nil, fmt.Errorf("store: edge endpoint out of range")
		}
		edges = append(edges, [2]provgraph.NodeID{provgraph.NodeID(src), provgraph.NodeID(dst)})
	}

	invCount, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if invCount > maxLen {
		return nil, fmt.Errorf("store: invocation count exceeds limit")
	}
	invs := make([]provgraph.Invocation, 0, capHint(invCount))
	for i := uint64(0); i < invCount; i++ {
		module, err := r.str()
		if err != nil {
			return nil, err
		}
		nodeName, err := r.str()
		if err != nil {
			return nil, err
		}
		execIdx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		mnode, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		inputs, err := readIDs(r, nodeCount)
		if err != nil {
			return nil, err
		}
		outputs, err := readIDs(r, nodeCount)
		if err != nil {
			return nil, err
		}
		states, err := readIDs(r, nodeCount)
		if err != nil {
			return nil, err
		}
		if mnode >= nodeCount {
			return nil, fmt.Errorf("store: invocation m-node out of range")
		}
		invs = append(invs, provgraph.Invocation{
			ID: provgraph.InvID(i), Module: module, NodeName: nodeName,
			Execution: int(execIdx), MNode: provgraph.NodeID(mnode),
			Inputs: inputs, Outputs: outputs, States: states,
		})
	}
	// Node invocation back-references must land inside the invocation
	// table: a corrupt file must fail here, not panic in the query layer.
	for i := range nodes {
		if nodes[i].Inv < -1 || nodes[i].Inv >= provgraph.InvID(invCount) {
			return nil, fmt.Errorf("store: node invocation reference out of range")
		}
	}

	dead, err := readIDs(r, nodeCount)
	if err != nil {
		return nil, err
	}

	g := provgraph.Reconstruct(nodes, edges, invs, dead)

	snap := &Snapshot{Graph: g}
	if snap.Outputs, err = readOutputs(r); err != nil {
		return nil, err
	}
	// A v2 file's postings section follows; it is derived data, so it is
	// left unread and the postings are rebuilt from the validated graph.
	snap.Postings = BuildPostings(g)
	return snap, nil
}

func readIDs(r *reader, nodeCount uint64) ([]provgraph.NodeID, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("store: id list exceeds limit")
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]provgraph.NodeID, 0, capHint(n))
	for i := uint64(0); i < n; i++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= nodeCount {
			return nil, fmt.Errorf("store: node id out of range")
		}
		out = append(out, provgraph.NodeID(v))
	}
	return out, nil
}

// Save writes the snapshot to a file.
func Save(path string, s *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		_ = f.Close() // the write error wins
		return err
	}
	return f.Close()
}

// Load reads a snapshot from a file with full validation.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // opened read-only
	return Read(f)
}

// LoadMapped opens a snapshot for querying at minimal cost: a v3 file is
// memory-mapped and its columns served straight from the page cache, with
// no per-node decode — pages fault in as queries touch them. The open
// makes the same number of allocations at any graph size; the bytes it
// copies (the symbol slab, the liveness bits, the column block headers)
// still grow with the graph. The file is trusted (typically one this process wrote); only the footer
// checksum and section bounds are verified. Pre-v3 files, and platforms
// without mmap, fall back to the buffered full-decode path.
func LoadMapped(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // the mapping outlives the descriptor

	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if head[len(magic)] != versionColumnar || !mmapSupported || fi.Size() == 0 {
		return Read(f)
	}
	mf, err := mapFile(f, fi.Size())
	if err != nil {
		return Read(f) // e.g. mmap limits; correctness is unaffected
	}
	return parseV3(mf.data, false, mf)
}
