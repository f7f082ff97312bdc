// Package provgraph (fixture) seeds a mutation reached from a
// GraphView-taking function, for the viewpurity analyzer fixture tests.
package provgraph

// Event is the fixture event type.
type Event struct{ Node string }

// Graph is the fixture's mutable graph.
type Graph struct {
	n      int
	events func(Event)
}

func (g *Graph) emit(ev Event) {
	if g.events != nil {
		g.events(ev)
	}
}

// AddNode mutates the graph.
func (g *Graph) AddNode(id string) {
	g.n++
	g.emit(Event{Node: id})
}

// NumNodes reads.
func (g *Graph) NumNodes() int { return g.n }

// GraphView is the read-only lens.
type GraphView interface {
	NumNodes() int
}

// CountNodes stays on the read surface.
func CountNodes(v GraphView) int {
	return v.NumNodes()
}

// CompareAndPatch takes a view but mutates the graph on the side: the
// seeded violation.
func CompareAndPatch(v GraphView, g *Graph) {
	if v.NumNodes() < 1 {
		g.AddNode("patch") // want `takes a provgraph\.GraphView but calls mutating Graph\.AddNode`
	}
}

// Overlay is the fixture's copy-on-write view.
type Overlay struct{ changes int }

// ZoomOutInvocations mutates the overlay.
func (o *Overlay) ZoomOutInvocations(modules []string, invs []int) { o.changes++ }

// RecomputeAggregates mutates the overlay.
func (o *Overlay) RecomputeAggregates() { o.changes++ }

// Reset mutates the overlay.
func (o *Overlay) Reset(g *Graph) { o.changes = 0 }

func (o *Overlay) killMask(w int, mask uint64)   { o.changes++ }
func (o *Overlay) reviveMask(w int, mask uint64) { o.changes++ }
func (o *Overlay) rollback()                     { o.changes-- }

// NumNodes reads.
func (o *Overlay) NumNodes() int { return o.changes }

// ZoomAndRecompute takes a view but transforms an overlay through the
// word-at-a-time and rollback paths the zoom kernel uses.
func ZoomAndRecompute(v GraphView, o *Overlay, g *Graph) {
	o.ZoomOutInvocations(nil, nil) // want `calls mutating Overlay\.ZoomOutInvocations`
	o.killMask(0, 1)               // want `calls mutating Overlay\.killMask`
	o.reviveMask(0, 1)             // want `calls mutating Overlay\.reviveMask`
	o.RecomputeAggregates()        // want `calls mutating Overlay\.RecomputeAggregates`
	o.rollback()                   // want `calls mutating Overlay\.rollback`
	o.Reset(g)                     // want `calls mutating Overlay\.Reset`
}

// MutateElsewhere has no view parameter: out of scope for the rule.
func MutateElsewhere(g *Graph) {
	g.AddNode("free")
}
