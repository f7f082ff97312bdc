package provgraph

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the live graph in Graphviz DOT format, following the
// paper's visual conventions: p-nodes are circles, v-nodes are squares,
// module invocation nodes are labeled with the module name, and zoomed
// module nodes are rounded rectangles.
func (g *Graph) WriteDOT(w io.Writer, title string) error { return g.reader().writeDOT(w, title) }

// WriteDOT renders the overlay's live view (the session's what-if graph)
// in Graphviz DOT format.
func (o *Overlay) WriteDOT(w io.Writer, title string) error { return o.reader().writeDOT(w, title) }

func (r reader) writeDOT(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=BT;\n  node [fontsize=10];\n", title); err != nil {
		return err
	}
	var err error
	r.nodes(func(n Node) bool {
		shape := "circle"
		if n.Class == ClassV {
			shape = "box"
		}
		if n.Type == TypeZoom {
			shape = "box"
		}
		style := ""
		if n.Type == TypeZoom {
			style = ",style=rounded"
		}
		label := dotLabel(n)
		_, err = fmt.Fprintf(w, "  n%d [label=%q,shape=%s%s];\n", n.ID, label, shape, style)
		return err == nil
	})
	if err != nil {
		return err
	}
	var buf []NodeID
	r.nodes(func(n Node) bool {
		for _, dst := range r.adj(down, n.ID, &buf) {
			if !r.alive(dst) {
				continue
			}
			if _, err = fmt.Fprintf(w, "  n%d -> n%d;\n", n.ID, dst); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, "}\n")
	return err
}

// dotLabel builds a human-readable label for a node.
func dotLabel(n Node) string {
	var parts []string
	switch n.Type {
	case TypeWorkflowInput:
		parts = append(parts, "I:"+n.Label)
	case TypeInvocation:
		parts = append(parts, n.Label+" [m]")
	case TypeModuleInput:
		parts = append(parts, "· [i]")
	case TypeModuleOutput:
		parts = append(parts, "· [o]")
	case TypeState:
		parts = append(parts, "· [s]")
	case TypeBaseTuple:
		parts = append(parts, n.Label)
	case TypeZoom:
		parts = append(parts, n.Label)
	case TypeOp:
		parts = append(parts, n.Op.String())
	case TypeValue:
		switch n.Op {
		case OpConst:
			parts = append(parts, n.Value.String())
		case OpTensor:
			parts = append(parts, "⊗")
		case OpAgg, OpBB:
			parts = append(parts, n.Label)
		default:
			parts = append(parts, n.Op.String())
		}
	}
	return strings.Join(parts, " ")
}

// DOT renders the live graph to a string.
func (g *Graph) DOT(title string) string {
	var sb strings.Builder
	_ = g.WriteDOT(&sb, title)
	return sb.String()
}

// DOT renders the overlay's live view to a string.
func (o *Overlay) DOT(title string) string {
	var sb strings.Builder
	_ = o.WriteDOT(&sb, title)
	return sb.String()
}
