package eval

import (
	"fmt"
	"testing"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
	"lipstick/internal/provgraph"
)

// carsEnv binds the dealer module's join shape: Cars, n (CarId, Model)
// tuples over eight models, and Req, one request for model want.
func carsEnv(b *provgraph.Builder, n int, want string) (*Env, nested.RelationSchemas) {
	str := nested.ScalarType(nested.KindString)
	schemas := nested.RelationSchemas{
		"Cars": nested.NewSchema(nested.Field{Name: "CarId", Type: str}, nested.Field{Name: "Model", Type: str}),
		"Req":  nested.NewSchema(nested.Field{Name: "Model", Type: str}),
	}
	env := NewEnv()
	cars := NewRelation(schemas["Cars"])
	for i := 0; i < n; i++ {
		prov := provgraph.InvalidNode
		if b != nil {
			prov = b.BaseTuple(fmt.Sprintf("c%d", i))
		}
		t := nested.NewTuple(nested.Str(fmt.Sprintf("C%d", i)), nested.Str(fmt.Sprintf("model%d", i%8)))
		cars.Add(b, AnnTuple{Tuple: t, Prov: prov, Mult: 1})
	}
	req := NewRelation(schemas["Req"])
	req.Add(b, AnnTuple{Tuple: nested.NewTuple(nested.Str(want)), Prov: provgraph.InvalidNode, Mult: 1})
	env.Set("Cars", cars)
	env.Set("Req", req)
	return env, schemas
}

func compileJoin(tb testing.TB, src string, schemas nested.RelationSchemas) *pig.JoinOp {
	tb.Helper()
	plan, err := pig.CompileSource(src, schemas, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return plan.Steps[0].Op.(*pig.JoinOp)
}

// TestJoinMissAllocsIndependentOfProbeSide pins the probe path's contract:
// joining a large relation with a one-tuple relation it never matches
// hashes only the one tuple, and probing the large side allocates nothing,
// so the join allocates the same at 20 and at 2,000 tuples.
func TestJoinMissAllocsIndependentOfProbeSide(t *testing.T) {
	for _, src := range []string{
		"J = JOIN Cars BY Model, Req BY Model;",
		"J = JOIN Req BY (Model, Model), Cars BY (Model, CarId);",
	} {
		var allocs []float64
		for _, n := range []int{20, 2000} {
			env, schemas := carsEnv(nil, n, "nomodel")
			op := compileJoin(t, src, schemas)
			e := New(nil)
			allocs = append(allocs, testing.AllocsPerRun(50, func() {
				res, err := e.runJoin(op, env)
				if err != nil || res.Len() != 0 {
					t.Fatalf("join = %v, %v; want empty", res, err)
				}
			}))
		}
		if allocs[1] != allocs[0] {
			t.Errorf("%s: %.1f allocs at 20 tuples, %.1f at 2000: the probe side allocates", src, allocs[0], allocs[1])
		}
	}
}

// BenchmarkJoin times the dealer module's joins over a 2,000-car state
// relation: a request matching no model, one matching an eighth of the
// cars, and (tracked) the same with the cars bound as deferred state.
func BenchmarkJoin(b *testing.B) {
	const src = "J = JOIN Cars BY Model, Req BY Model;"
	for _, bc := range []struct {
		name    string
		want    string
		tracked bool
	}{
		{"miss", "nomodel", false},
		{"hit", "model3", false},
		{"hit-tracked", "model3", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var builder *provgraph.Builder
			if bc.tracked {
				builder = provgraph.NewBuilder()
			}
			env, schemas := carsEnv(builder, 2000, bc.want)
			op := compileJoin(b, src, schemas)
			state := env.Rels["Cars"]
			e := New(builder)
			b.ReportAllocs()
			for b.Loop() {
				if bc.tracked {
					env.Set("Cars", state.BindDeferred(func(base provgraph.NodeID) provgraph.NodeID { return base }))
				}
				if _, err := e.runJoin(op, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
