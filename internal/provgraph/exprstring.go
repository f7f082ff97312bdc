package provgraph

import (
	"strconv"
	"unicode/utf8"
)

// MaxExprBytes caps a rendered provenance expression. Printed out, a
// node's expression repeats every shared subexpression once per use, so
// its length is exponential in derivation depth: most module outputs of
// a 20-execution run have more than 1e30 leaves. A rendering that would
// be longer is cut at this many bytes, on a rune boundary.
const MaxExprBytes = 1 << 20

// ExprString renders Expr(id).String() straight from the graph, without
// building the expression tree. The result is byte-identical to the
// tree's rendering when that fits in MaxExprBytes; otherwise it is the
// longest whole-rune prefix within the cap, and truncated is true.
func (g *Graph) ExprString(id NodeID) (expr string, truncated bool) {
	return exprStringOf(g.reader(), id)
}

// ExprString renders a node's provenance expression in the overlay view.
func (o *Overlay) ExprString(id NodeID) (expr string, truncated bool) {
	return exprStringOf(o.reader(), id)
}

// exprKind is the shape of a node's expression, after the flattening
// semiring.Add, Mul and Dedup apply.
type exprKind uint8

const (
	exprZero exprKind = iota
	exprOne
	exprToken
	exprSum
	exprProduct
	exprDelta
)

// exprSlot is the rendering state of one node reached by ExprString;
// slots are numbered in the order nodes are reached. A node whose
// expression collapses to one of its children's — a + or · node with one
// contributing child, or a δ over a δ — is an alias: to is the slot of
// the node it collapses to and kind is that node's. Any other node is its
// own to, and the slots of its contributing children (resolved through
// their aliases) are kids[lo:hi].
type exprSlot struct {
	id         NodeID
	to         int32
	kind       exprKind
	lo, hi     int32
	start, end int32 // the node's first rendering, text[start:end]; end == 0 until written
}

// isTokenType reports whether nodes of type t are tokens in Expr.
func isTokenType(t Type) bool {
	return t == TypeBaseTuple || t == TypeWorkflowInput || t == TypeInvocation || t == TypeZoom
}

// exprStringOf renders id's expression in two passes over the nodes it
// reaches: a post-order pass classifies each node the way exprOf builds
// it, then the emit pass writes the string once into pooled scratch,
// copying the bytes of every later occurrence of a subexpression from its
// first. A reached node's slot number is kept in s.deg, the only
// per-slot column it needs besides the visited marks; the slots
// themselves grow with the nodes reached. The only allocation is the
// result string.
func exprStringOf(r reader, id NodeID) (string, bool) {
	if !r.alive(id) {
		return "0", false
	}
	s := getVisit(r.total())
	defer putVisit(s)
	s.deg = grown(s.deg, r.total())
	s.exprKinds(r, id)
	w := exprWriter{r: r, s: s, buf: s.text[:0]}
	w.emit(s.expr[s.deg[id]].to)
	s.text = w.buf
	if !w.cut {
		return string(w.buf), false
	}
	return string(wholeRunes(w.buf)), true
}

// exprKinds classifies every node id's expression reaches, children
// before parents. A node is expanded when first popped; its negated id,
// left in its stack slot, pops once every child pushed above it is
// classified. Value nodes and dead nodes do not contribute, and tokens
// are not expanded.
func (s *visitScratch) exprKinds(r reader, root NodeID) {
	s.expr, s.kids = s.expr[:0], s.kids[:0]
	stack := append(s.queue[:0], root)
	for len(stack) > 0 {
		top := len(stack) - 1
		id := stack[top]
		if id < 0 {
			stack = stack[:top]
			s.exprKind(r, s.deg[^id])
			continue
		}
		if !s.visit(id) {
			stack = stack[:top]
			continue
		}
		// Zero until classified: exprOf's guard against (impossible) cycles.
		slot := int32(len(s.expr))
		s.deg[id] = slot
		s.expr = append(s.expr, exprSlot{id: id, to: slot})
		stack[top] = ^id
		if t, _ := r.typeOp(id); isTokenType(t) {
			continue
		}
		for _, in := range r.adj(up, id, &s.adj) {
			if r.alive(in) && r.class(in) != ClassV && s.mark[in] != s.epoch {
				stack = append(stack, in)
			}
		}
	}
	s.queue = stack
}

// exprKind classifies slot i's node once its children are classified,
// following exprOf: tokens by type; + drops 0 children, δ is δ of their
// sum; any other node is the product of its children, 0 if one of them
// is 0, dropping 1s. A sum or product of one child collapses to it, and
// so does a δ of a δ.
func (s *visitScratch) exprKind(r reader, i int32) {
	sl := &s.expr[i]
	t, op := r.typeOp(sl.id)
	if isTokenType(t) {
		sl.kind = exprToken
		return
	}
	sumLike := op == OpPlus || op == OpDelta
	lo := len(s.kids)
	for _, in := range r.adj(up, sl.id, &s.adj) {
		if !r.alive(in) || r.class(in) == ClassV {
			continue
		}
		c := &s.expr[s.deg[in]]
		switch {
		case c.kind == exprZero && sumLike:
			continue
		case c.kind == exprZero:
			s.kids = s.kids[:lo]
			return // a product with a 0 factor; sl.kind is already zero
		case c.kind == exprOne && !sumLike:
			continue
		}
		s.kids = append(s.kids, c.to)
	}
	switch n := len(s.kids) - lo; {
	case n == 0 && sumLike:
		sl.kind = exprZero
	case n == 0:
		sl.kind = exprOne
	case n == 1 && (op != OpDelta || s.expr[s.kids[lo]].kind == exprDelta):
		sl.to = s.kids[lo]
		sl.kind = s.expr[sl.to].kind
		s.kids = s.kids[:lo]
	default:
		sl.lo, sl.hi = int32(lo), int32(len(s.kids))
		switch op {
		case OpPlus:
			sl.kind = exprSum
		case OpDelta:
			sl.kind = exprDelta
		default:
			sl.kind = exprProduct
		}
	}
}

// exprWriter emits the nodes exprKinds classified into buf, up to
// MaxExprBytes, reading token labels through the same reader.
type exprWriter struct {
	r   reader
	s   *visitScratch
	buf []byte
	cut bool // buf reached the cap with more to write
}

// emit writes the expression of slot i, a non-alias node, exactly as
// semiring's String renders it: sums and products print their (flattened)
// arguments inline, and a sum is parenthesised only as a product's
// factor. A node written before is copied from its first rendering.
func (w *exprWriter) emit(i int32) {
	if w.cut {
		return
	}
	sl := &w.s.expr[i]
	if sl.end > 0 {
		w.repeat(int(sl.start), int(sl.end))
		return
	}
	start := len(w.buf)
	switch sl.kind {
	case exprZero:
		w.write("0")
	case exprOne:
		w.write("1")
	case exprToken:
		if l := w.r.label(sl.id); l != "" {
			w.write(l)
		} else {
			var num [16]byte
			w.write(string(strconv.AppendInt(append(num[:0], 'n'), int64(sl.id), 10)))
		}
	case exprSum:
		w.join(sl, " + ", false)
	case exprProduct:
		w.join(sl, "·", true)
	case exprDelta:
		w.write("δ(")
		w.join(sl, " + ", false)
		w.write(")")
	}
	if !w.cut {
		sl.start, sl.end = int32(start), int32(len(w.buf))
	}
}

// join emits a node's children separated by sep, parenthesising sums
// when asked to.
func (w *exprWriter) join(sl *exprSlot, sep string, parenSums bool) {
	for i, k := range w.s.kids[sl.lo:sl.hi] {
		if w.cut {
			return
		}
		if i > 0 {
			w.write(sep)
		}
		if parenSums && w.s.expr[k].kind == exprSum {
			w.write("(")
			w.emit(k)
			w.write(")")
		} else {
			w.emit(k)
		}
	}
}

// write appends p, or as much of it as the cap leaves room for.
func (w *exprWriter) write(p string) {
	if w.cut {
		return
	}
	if room := MaxExprBytes - len(w.buf); len(p) > room {
		p = p[:room]
		w.cut = true
	}
	w.buf = append(w.buf, p...)
}

// repeat appends buf[start:end], or as much of it as the cap leaves room
// for.
func (w *exprWriter) repeat(start, end int) {
	if room := MaxExprBytes - len(w.buf); end-start > room {
		end = start + room
		w.cut = true
	}
	w.buf = append(w.buf, w.buf[start:end]...)
}

// wholeRunes drops a multibyte rune (·, δ, or one in a label) the cap
// cut short from the end of b.
func wholeRunes(b []byte) []byte {
	for i := len(b) - 1; i >= 0 && i >= len(b)-utf8.UTFMax; i-- {
		if utf8.RuneStart(b[i]) {
			if !utf8.FullRune(b[i:]) {
				return b[:i]
			}
			break
		}
	}
	return b
}
