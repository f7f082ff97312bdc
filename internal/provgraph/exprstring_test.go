package provgraph_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// TestExprStringMatchesTree is the byte-identity gate of the direct
// provenance renderer: ExprString must print exactly what the expression
// tree prints, Expr(id).String(), for every p-node — dead ones ("0")
// included — on the same bases and views as the kernel gate.
func TestExprStringMatchesTree(t *testing.T) {
	for _, b := range diffBases(t) {
		t.Run(b.name, func(t *testing.T) {
			for _, vw := range diffViews(b) {
				rendered, dead := 0, 0
				for id := range provgraph.NodeID(vw.v.TotalNodes()) {
					if vw.v.Node(id).Class != provgraph.ClassP {
						continue
					}
					want := vw.v.Expr(id).String()
					got, truncated := vw.v.ExprString(id)
					if len(want) > provgraph.MaxExprBytes {
						if !truncated || !strings.HasPrefix(want, got) || len(got) < provgraph.MaxExprBytes-3 {
							t.Fatalf("%s: ExprString(%d) over the cap: %d bytes, truncated %v, want a %d-byte prefix",
								vw.name, id, len(got), truncated, provgraph.MaxExprBytes)
						}
						continue
					}
					if got != want || truncated {
						t.Fatalf("%s: ExprString(%d) = %q (truncated %v), tree %q", vw.name, id, got, truncated, want)
					}
					rendered++
					if !vw.v.Alive(id) {
						dead++
					}
				}
				if rendered == 0 {
					t.Fatalf("%s: no p-node rendered", vw.name)
				}
				if b.name == "dirty-base" && dead == 0 {
					t.Fatalf("%s: no dead p-node rendered", vw.name)
				}
			}
		})
	}
}

// randomExprGraph builds a layered random DAG over every shape exprOf
// distinguishes: tokens with and without labels, value nodes (which do
// not contribute), +, · and δ nodes and ·-labeled module nodes with zero
// to three in-edges (duplicates included), so sums meet products as
// factors, δs meet δs, and 0s and 1s meet both. A few nodes are then
// deleted, leaving dead ones.
func randomExprGraph(seed int64) *provgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := provgraph.New()
	var ids []provgraph.NodeID
	for i := range 6 {
		label := ""
		if i%3 != 0 {
			label = fmt.Sprintf("t%d", i)
		}
		ids = append(ids, g.AddNode(provgraph.Node{Class: provgraph.ClassP, Type: provgraph.TypeBaseTuple, Label: label}))
	}
	ids = append(ids, g.AddNode(provgraph.Node{Class: provgraph.ClassV, Type: provgraph.TypeValue, Op: provgraph.OpConst}))
	shapes := []provgraph.Node{
		{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpPlus},
		{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpTimes},
		{Class: provgraph.ClassP, Type: provgraph.TypeOp, Op: provgraph.OpDelta},
		{Class: provgraph.ClassP, Type: provgraph.TypeModuleOutput, Op: provgraph.OpTimes},
		{Class: provgraph.ClassP, Type: provgraph.TypeInvocation, Label: "M"},
		{Class: provgraph.ClassV, Type: provgraph.TypeValue, Op: provgraph.OpAgg, Label: "SUM"},
	}
	for range 6 {
		layer := len(ids)
		for range 8 {
			n := g.AddNode(shapes[rng.Intn(len(shapes))])
			for range rng.Intn(4) {
				g.AddEdge(ids[rng.Intn(layer)], n)
			}
			ids = append(ids, n)
		}
	}
	for range 3 {
		provgraph.RefDelete(g, ids[rng.Intn(len(ids))])
	}
	return g
}

// TestExprStringMatchesTreeRandom runs the byte-identity gate over random
// DAGs, on the graph and on an overlay with deletions of its own, for
// every node as the root.
func TestExprStringMatchesTreeRandom(t *testing.T) {
	for seed := range int64(200) {
		g := randomExprGraph(seed)
		ov := provgraph.NewOverlay(g)
		ov.Delete(provgraph.NodeID(seed % int64(g.TotalNodes())))
		for _, v := range []provgraph.GraphView{g, ov} {
			for id := range provgraph.NodeID(v.TotalNodes()) {
				want := v.Expr(id).String()
				if got, truncated := v.ExprString(id); got != want || truncated {
					t.Fatalf("seed %d, %T: ExprString(%d) = %q (truncated %v), tree %q", seed, v, id, got, truncated, want)
				}
			}
		}
	}
}

// exprTargets captures a fine-grained dealership run and returns it with
// the module outputs whose rendered provenance is 1–64 KB: large enough
// that shared subexpressions dominate, small enough that the tree can
// still be printed for comparison.
func exprTargets(b *testing.B) (*provgraph.Graph, []provgraph.NodeID) {
	b.Helper()
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 2000, NumExec: 6, Seed: 1, Gran: workflow.Fine,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := run.Runner.Graph()
	var targets []provgraph.NodeID
	for id := range provgraph.NodeID(g.TotalNodes()) {
		if g.TypeOf(id) != provgraph.TypeModuleOutput {
			continue
		}
		if s, truncated := g.ExprString(id); !truncated && len(s) >= 1<<10 && len(s) <= 64<<10 {
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		b.Fatal("no render targets")
	}
	return g, targets
}

// BenchmarkExprString renders provenance straight from the graph.
func BenchmarkExprString(b *testing.B) {
	g, targets := exprTargets(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		_, _ = g.ExprString(targets[i%len(targets)])
		i++
	}
}

// BenchmarkExprTree is ExprString's baseline: build the expression tree,
// then print it.
func BenchmarkExprTree(b *testing.B) {
	g, targets := exprTargets(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		_ = g.Expr(targets[i%len(targets)]).String()
		i++
	}
}
