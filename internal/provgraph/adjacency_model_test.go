package provgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// adjModel is the naive adjacency the span-encoded lists must match: one
// slice per node and direction, in append order.
type adjModel struct{ out, in [][]NodeID }

func (m *adjModel) addNode() {
	m.out = append(m.out, nil)
	m.in = append(m.in, nil)
}

func (m *adjModel) addEdge(src, dst NodeID) {
	m.out[src] = append(m.out[src], dst)
	m.in[dst] = append(m.in[dst], src)
}

// clone deep-copies the model: the snapshot a published view must keep
// matching, or the state a clone must keep matching.
func (m *adjModel) clone() *adjModel {
	c := &adjModel{}
	for i := range m.out {
		c.out = append(c.out, slices.Clone(m.out[i]))
		c.in = append(c.in, slices.Clone(m.in[i]))
	}
	return c
}

// canonicalIn rebuilds the in-lists in the order a frozen graph holds
// them: by source id, then by the source's out-list position.
func (m *adjModel) canonicalIn() {
	for i := range m.in {
		m.in[i] = nil
	}
	for src, outs := range m.out {
		for _, dst := range outs {
			m.in[dst] = append(m.in[dst], NodeID(src))
		}
	}
}

// checkAdjModel requires g's adjacency, both directions, every node, to
// be exactly the model's.
func checkAdjModel(t *testing.T, what string, g *Graph, m *adjModel) {
	t.Helper()
	if g.TotalNodes() != len(m.out) {
		t.Fatalf("%s: graph has %d slots, model %d", what, g.TotalNodes(), len(m.out))
	}
	var buf []NodeID
	for id := range m.out {
		for _, h := range []struct {
			name string
			a    *adjHalf
			want []NodeID
		}{{"out", &g.out, m.out[id]}, {"in", &g.in, m.in[id]}} {
			got := h.a.raw(NodeID(id), &buf)
			if !slices.Equal(got, h.want) || h.a.count(NodeID(id)) != len(h.want) {
				t.Fatalf("%s: node %d %s = %v (count %d), model %v", what, id, h.name, got, h.a.count(NodeID(id)), h.want)
			}
			var each []NodeID
			h.a.each(NodeID(id), func(n NodeID) bool { each = append(each, n); return true })
			if !slices.Equal(each, h.want) {
				t.Fatalf("%s: node %d %s iterates %v, model %v", what, id, h.name, each, h.want)
			}
		}
	}
}

// adjGen appends random nodes and edges to a graph and its model. Two
// hub nodes take a share of the edges' sources and destinations, so their
// lists outgrow a page and relocate at every capacity step on the way.
type adjGen struct {
	r    *rand.Rand
	hubs []NodeID
}

func (d *adjGen) node(g *Graph, m *adjModel) {
	g.AddNode(Node{Class: ClassP, Type: TypeOp, Op: OpPlus})
	m.addNode()
}

func (d *adjGen) pick(n int) NodeID {
	if d.r.Intn(2) == 0 {
		return d.hubs[d.r.Intn(len(d.hubs))]
	}
	return NodeID(d.r.Intn(n))
}

// steps performs n random appends, checking a hub's lists whenever their
// length is at or just past a capacity step.
func (d *adjGen) steps(t *testing.T, what string, g *Graph, m *adjModel, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if d.r.Intn(8) == 0 {
			d.node(g, m)
			continue
		}
		src, dst := d.pick(len(m.out)), d.pick(len(m.out))
		g.AddEdge(src, dst)
		m.addEdge(src, dst)
		for _, h := range d.hubs {
			if l := len(m.out[h]); (l&(l-1) == 0 || (l-1)&(l-2) == 0) && !slices.Equal(g.out.raw(h, nil), m.out[h]) {
				t.Fatalf("%s: hub %d out-list differs from the model at length %d", what, h, l)
			}
		}
	}
}

func newAdjGen(t *testing.T, seed int64, g *Graph, m *adjModel) *adjGen {
	t.Helper()
	d := &adjGen{r: rand.New(rand.NewSource(seed)), hubs: []NodeID{0, 1}}
	for len(m.out) < 4 {
		d.node(g, m)
	}
	return d
}

// TestAdjacencyMatchesModel runs random AddNode/AddEdge sequences against
// a naive model, with hub nodes whose lists outgrow one endpoint page,
// and requires: the graph to match the model; a view published
// mid-stream to keep matching the model's prefix while the writer
// appends; a Clone to be independent of its original; and a graph opened
// from a Frozen, prepared for ingest and appended to, to match the model
// while its CSR arrays stay byte-identical.
func TestAdjacencyMatchesModel(t *testing.T) {
	t.Run("built", func(t *testing.T) {
		const steps = 48000 // a hub's out-list outgrows a page (8,192 endpoints)
		for seed := int64(1); seed <= 2; seed++ {
			what := fmt.Sprintf("seed %d", seed)
			g, m := New(), &adjModel{}
			d := newAdjGen(t, seed, g, m)
			d.steps(t, what, g, m, steps/2)
			checkAdjModel(t, what+" live", g, m)

			view, prefix := g.PublishView(), m.clone()
			d.steps(t, what, g, m, steps/2)
			checkAdjModel(t, what+" view after more appends", view, prefix)
			checkAdjModel(t, what+" live after publish", g, m)
			if hub := len(m.out[d.hubs[0]]); hub <= adjPageSize {
				t.Fatalf("%s: hub out-degree %d does not outgrow a page", what, hub)
			}

			c, cm := g.Clone(), m.clone()
			d.steps(t, what+" original", g, m, 2000)
			cd := &adjGen{r: rand.New(rand.NewSource(^seed)), hubs: d.hubs}
			cd.steps(t, what+" clone", c, cm, 2000)
			checkAdjModel(t, what+" original after clone", g, m)
			checkAdjModel(t, what+" clone", c, cm)
			checkAdjModel(t, what+" view after clone", view, prefix)
		}
	})
	// A graph opened from a Frozen (CSR adjacency), with or without edges
	// spilled onto its base nodes before PrepareForIngest.
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("thawed/spill=%v", spill), func(t *testing.T) {
			g0, m := New(), &adjModel{}
			d := newAdjGen(t, 7, g0, m)
			d.steps(t, "built", g0, m, 12000)
			fr := Freeze(g0)
			csr := [][]uint32{slices.Clone(fr.OutOffs), nodeWords(fr.OutEdges), slices.Clone(fr.InOffs), nodeWords(fr.InEdges)}
			g := FromFrozen(fr, nil)
			m.canonicalIn()
			checkAdjModel(t, "opened", g, m)
			if spill {
				d.steps(t, "spilled", g, m, 500)
			}
			g.PrepareForIngest()
			if g.out.baseN != 0 || g.in.baseN != 0 {
				t.Fatal("PrepareForIngest left a CSR base")
			}
			checkAdjModel(t, "thawed", g, m)
			view, prefix := g.PublishView(), m.clone()
			d.steps(t, "appended", g, m, 12000)
			checkAdjModel(t, "appended", g, m)
			checkAdjModel(t, "view", view, prefix)
			c, cm := g.Clone(), m.clone()
			d.steps(t, "after clone", g, m, 1000)
			checkAdjModel(t, "clone", c, cm)
			checkAdjModel(t, "original after clone", g, m)
			for i, now := range [][]uint32{fr.OutOffs, nodeWords(fr.OutEdges), fr.InOffs, nodeWords(fr.InEdges)} {
				if !slices.Equal(now, csr[i]) {
					t.Fatalf("CSR array %d was written", i)
				}
			}
		})
	}
}

// nodeWords copies ids as the uint32 words a CSR stores.
func nodeWords(ids []NodeID) []uint32 {
	w := make([]uint32, len(ids))
	for i, id := range ids {
		w[i] = uint32(id)
	}
	return w
}
