package provgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lipstick/internal/nested"
	"lipstick/internal/semiring"
)

// TestDeleteCarC2 reproduces Figure 3 / Example 4.3: propagating the
// deletion of car C2 removes its state node and join, but the COUNT, the
// group, the bid and everything downstream survive.
func TestDeleteCarC2(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	res := ov.Delete(f.n01)

	wantDead := []NodeID{f.n01, f.n42, f.n60}
	for _, id := range wantDead {
		if !res.Deleted(id) {
			t.Errorf("node %d should be deleted", id)
		}
	}
	wantAlive := []NodeID{f.n00, f.n02, f.n43, f.n50, f.n61, f.n71, f.n70, f.n75, f.n80, f.n90, f.oAgg}
	for _, id := range wantAlive {
		if res.Deleted(id) {
			t.Errorf("node %d should survive", id)
		}
	}
	// The ⊗ contribution of C2's join to COUNT must be gone: COUNT now has
	// exactly one live tensor in-neighbor.
	tensors := 0
	for _, in := range ov.In(f.n70) {
		if ov.Node(in).Op == OpTensor {
			tensors++
		}
	}
	if tensors != 1 {
		t.Errorf("COUNT has %d surviving tensors, want 1", tensors)
	}
	if !ov.Materialize().IsAcyclic() {
		t.Error("deletion broke acyclicity")
	}
}

// TestDeleteRequest reproduces Example 4.4: deleting the workflow input
// deletes the entire graph except state tuples, state nodes, module
// invocations, and constants.
func TestDeleteRequest(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	res := ov.Delete(f.n00)

	ov.Nodes(func(n Node) bool {
		switch {
		case n.Type == TypeInvocation, n.Type == TypeBaseTuple, n.Type == TypeState:
			return true // expected survivors
		case n.Op == OpConst:
			return true // constants have no derivation to lose
		default:
			t.Errorf("node %d (%s/%s/%s) should have been deleted", n.ID, n.Type, n.Op, n.Label)
			return true
		}
	})
	for _, id := range []NodeID{f.n42, f.n43, f.n01, f.n02} {
		if res.Deleted(id) {
			t.Errorf("state-side node %d should survive", id)
		}
	}
	for _, id := range []NodeID{f.n41, f.n50, f.n60, f.n61, f.n70, f.n71, f.n75, f.n80, f.n90, f.n110, f.aggMin, f.oAgg} {
		if !res.Deleted(id) {
			t.Errorf("node %d should be deleted", id)
		}
	}
}

// TestDependsOn reproduces Example 4.5: the bid does not depend on car C2,
// but does depend on the request I1.
func TestDependsOn(t *testing.T) {
	f := buildDealershipFixture()
	if f.g.DependsOn(f.n90, f.n01) {
		t.Error("bid should not depend on the existence of C2")
	}
	if !f.g.DependsOn(f.n90, f.n00) {
		t.Error("bid should depend on the request")
	}
	if !f.g.DependsOn(f.n60, f.n01) {
		t.Error("C2's join depends on C2")
	}
}

// TestDependsOnOutOfRange asks the dependency query with an id outside
// the view on either side: the answer is false, on a graph and on an
// overlay that has appended nodes, never a panic.
func TestDependsOnOutOfRange(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	ov.ZoomOut("M_agg")
	for _, v := range []GraphView{f.g, ov} {
		total := NodeID(v.TotalNodes())
		for _, c := range []struct {
			a, b NodeID
			want bool
		}{
			{f.n60, f.n01, true},
			{-1, f.n01, false},
			{total, f.n01, false},
			{f.n60, -1, false},
			{f.n60, total, false},
			{f.n60, total + 100, false},
			{total, total, false},
		} {
			if got := v.DependsOn(c.a, c.b); got != c.want {
				t.Errorf("%T with %d slots: DependsOn(%d, %d) = %v, want %v", v, total, c.a, c.b, got, c.want)
			}
		}
	}
}

// TestPropagateDeletionDoesNotMutate checks the pure analysis variant.
func TestPropagateDeletionDoesNotMutate(t *testing.T) {
	f := buildDealershipFixture()
	before := f.g.NumNodes()
	res := f.g.PropagateDeletion(f.n00)
	if f.g.NumNodes() != before {
		t.Error("PropagateDeletion must not modify the graph")
	}
	if res.Size() == 0 {
		t.Error("deletion of the request must remove something")
	}
}

// TestDeletionMonotone: deleting a superset of nodes removes a superset.
func TestDeletionMonotone(t *testing.T) {
	f := buildDealershipFixture()
	small := f.g.PropagateDeletion(f.n01)
	large := f.g.PropagateDeletion(f.n01, f.n02)
	for _, id := range small.Removed {
		if !large.Deleted(id) {
			t.Errorf("node %d removed by smaller deletion but not larger", id)
		}
	}
	if large.Size() <= small.Size() {
		t.Error("deleting both cars should remove strictly more")
	}
}

// TestDeleteBothCars: with both cars gone, the COUNT loses all tensors and
// dies by rule (1); so does the group; the cogroup loses the NumCars branch
// but keeps the request branch — δ keeps living on partial loss.
func TestDeleteBothCars(t *testing.T) {
	f := buildDealershipFixture()
	res := NewOverlay(f.g).Delete(f.n01, f.n02)
	for _, id := range []NodeID{f.n60, f.n61, f.n70, f.n71, f.numCars} {
		if !res.Deleted(id) {
			t.Errorf("node %d should be deleted when both cars are gone", id)
		}
	}
	if res.Deleted(f.n75) {
		t.Error("cogroup keeps its request member, must survive")
	}
	if res.Deleted(f.n90) {
		t.Error("bid still derivable from the request branch")
	}
}

// TestRecomputeAggregates reproduces the re-computation of Example 4.3: the
// COUNT over {C2,C3} becomes 1 after C2 is deleted.
func TestRecomputeAggregates(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	ov.Delete(f.n01)
	changed := ov.RecomputeAggregates()
	var countRec *RecomputedAggregate
	for i := range changed {
		if changed[i].Node == f.n70 {
			countRec = &changed[i]
		}
	}
	if countRec == nil {
		t.Fatal("COUNT aggregate should have been recomputed")
	}
	if !countRec.Before.Equal(nested.Int(2)) || !countRec.After.Equal(nested.Int(1)) {
		t.Errorf("COUNT recompute %v -> %v, want 2 -> 1", countRec.Before, countRec.After)
	}
	if countRec.Survivors != 1 {
		t.Errorf("survivors = %d, want 1", countRec.Survivors)
	}
	if ov.Node(f.n70).Value.Compare(nested.Int(1)) != 0 {
		t.Error("recomputed value should be written to the node")
	}
}

// TestRecomputeMin: deleting the winning bid's input changes MIN to the
// competing bid.
func TestRecomputeMin(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	ov.Delete(f.n90) // dealer1's bid disappears
	changed := ov.RecomputeAggregates()
	found := false
	for _, rec := range changed {
		if rec.Node == f.aggMin {
			found = true
			if !rec.After.Equal(nested.Float(22000)) {
				t.Errorf("MIN after deletion = %v, want 22000", rec.After)
			}
		}
	}
	if !found {
		t.Error("MIN should have been recomputed")
	}
}

func TestExprReconstruction(t *testing.T) {
	f := buildDealershipFixture()
	e := f.g.Expr(f.n90)
	tokens := semiring.Tokens(e)
	want := map[semiring.Token]bool{"I1": true, "C2": true, "C3": true, "M_dealer1": true, "M_and": true}
	got := map[semiring.Token]bool{}
	for _, tk := range tokens {
		got[tk] = true
	}
	for tk := range want {
		if !got[tk] {
			t.Errorf("expr of the bid should mention token %q (got %v)", tk, tokens)
		}
	}
	if got["M_agg"] {
		t.Error("the bid does not depend on the aggregator module")
	}
}

// TestDeletionMatchesSemiring differentially tests graph deletion against
// the semiring semantics: for random op-circuits, a sink survives the graph
// deletion of a token node iff its reconstructed provenance expression has
// a derivation with that token set to zero.
func TestDeletionMatchesSemiring(t *testing.T) {
	build := func(r *rand.Rand) (*Graph, []NodeID, []NodeID) {
		b := NewBuilder()
		tokens := make([]NodeID, 3+r.Intn(3))
		for i := range tokens {
			tokens[i] = b.BaseTuple("t" + string(rune('0'+i)))
		}
		layer := append([]NodeID(nil), tokens...)
		for depth := 0; depth < 3; depth++ {
			var next []NodeID
			for i := 0; i < 2+r.Intn(3); i++ {
				k := 1 + r.Intn(3)
				srcs := make([]NodeID, k)
				for j := range srcs {
					srcs[j] = layer[r.Intn(len(layer))]
				}
				var n NodeID
				switch r.Intn(3) {
				case 0:
					n = b.Project(srcs...)
				case 1:
					n = b.Product(srcs...)
				default:
					n = b.Group(srcs...)
				}
				next = append(next, n)
			}
			layer = next
		}
		return b.G, tokens, layer
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, tokens, sinks := build(r)
		// Delete a random non-empty subset of tokens.
		var del []NodeID
		deleted := map[semiring.Token]bool{}
		for _, tk := range tokens {
			if r.Intn(2) == 0 {
				del = append(del, tk)
				deleted[semiring.Token(g.Node(tk).Label)] = true
			}
		}
		if len(del) == 0 {
			del = append(del, tokens[0])
			deleted[semiring.Token(g.Node(tokens[0]).Label)] = true
		}
		res := g.PropagateDeletion(del...)
		for _, sink := range sinks {
			expr := g.Expr(sink)
			if semiring.DeletionSurvives(expr, deleted) == res.Deleted(sink) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDeleteIsIdempotent: applying the same deletion twice changes nothing
// further.
func TestDeleteIsIdempotent(t *testing.T) {
	f := buildDealershipFixture()
	ov := NewOverlay(f.g)
	ov.Delete(f.n01)
	n := ov.NumNodes()
	res := ov.Delete(f.n01)
	if res.Size() != 0 || ov.NumNodes() != n {
		t.Error("second deletion should be a no-op")
	}
}
