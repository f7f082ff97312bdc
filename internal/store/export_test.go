package store

import "lipstick/internal/provgraph"

// MmapSupported reports whether LoadMapped maps v3 files on this platform.
const MmapSupported = mmapSupported

// Index is the map-based postings index that v2 snapshots persisted, kept
// here as the reference the columnar postings are checked against.
type Index struct {
	Nodes      int
	ByType     map[provgraph.Type][]provgraph.NodeID
	ByOp       map[provgraph.Op][]provgraph.NodeID
	ByLabel    map[string][]provgraph.NodeID
	ByModule   map[string][]provgraph.NodeID
	ModuleInvs map[string][]provgraph.InvID
}

func (idx *Index) Coverage() int                                { return idx.Nodes }
func (idx *Index) TypeIDs(t provgraph.Type) []provgraph.NodeID  { return idx.ByType[t] }
func (idx *Index) OpIDs(o provgraph.Op) []provgraph.NodeID      { return idx.ByOp[o] }
func (idx *Index) LabelIDs(label string) []provgraph.NodeID     { return idx.ByLabel[label] }
func (idx *Index) ModuleIDs(module string) []provgraph.NodeID   { return idx.ByModule[module] }
func (idx *Index) ModuleInvocations(m string) []provgraph.InvID { return idx.ModuleInvs[m] }

// BuildIndex computes the reference postings in one pass over all node
// slots, in id order.
func BuildIndex(g *provgraph.Graph) *Index {
	idx := &Index{
		Nodes:      g.TotalNodes(),
		ByType:     make(map[provgraph.Type][]provgraph.NodeID),
		ByOp:       make(map[provgraph.Op][]provgraph.NodeID),
		ByLabel:    make(map[string][]provgraph.NodeID),
		ByModule:   make(map[string][]provgraph.NodeID),
		ModuleInvs: make(map[string][]provgraph.InvID),
	}
	g.AllNodesDo(func(n provgraph.Node) bool {
		idx.ByType[n.Type] = append(idx.ByType[n.Type], n.ID)
		idx.ByOp[n.Op] = append(idx.ByOp[n.Op], n.ID)
		if n.Label != "" {
			idx.ByLabel[n.Label] = append(idx.ByLabel[n.Label], n.ID)
		}
		if n.Inv >= 0 {
			m := g.Invocation(n.Inv).Module
			idx.ByModule[m] = append(idx.ByModule[m], n.ID)
		}
		return true
	})
	g.Invocations(func(inv *provgraph.Invocation) bool {
		idx.ModuleInvs[inv.Module] = append(idx.ModuleInvs[inv.Module], inv.ID)
		return true
	})
	return idx
}
