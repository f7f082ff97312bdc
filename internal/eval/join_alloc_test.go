package eval

import (
	"fmt"
	"runtime"
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

// TestJoinMissAllocsIndependentOfProbeSide pins the repeated-probe path's
// contract: once a large relation has been probed twice by a key list (the
// second probe indexes it), joining it with a one-tuple relation it never
// matches hashes only the one tuple and looks it up, so the join
// allocates the same at 20 and at 2,000 tuples.
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
			miss := func() {
				res, err := e.runJoin(op, env)
				if err != nil || res.Len() != 0 {
					t.Fatalf("join = %v, %v; want empty", res, err)
				}
			}
			miss() // scans Cars
			miss() // indexes Cars
			allocs = append(allocs, testing.AllocsPerRun(50, miss))
		}
		if allocs[1] != allocs[0] {
			t.Errorf("%s: %.1f allocs at 20 tuples, %.1f at 2000: the probe side allocates", src, allocs[0], allocs[1])
		}
	}
}

// TestBindDeferredAllocsIndependentOfStateSize: binding state for an
// invocation shares the state's tuples and indexes, so it allocates the
// same at 20 and at 2,000 tuples, and so does making the first node.
func TestBindDeferredAllocsIndependentOfStateSize(t *testing.T) {
	mk := func(base provgraph.NodeID) provgraph.NodeID { return base + 1 }
	var bind, touch []float64
	for _, n := range []int{20, 2000} {
		env, _ := carsEnv(nil, n, "nomodel")
		cars := env.Rels["Cars"]
		bind = append(bind, testing.AllocsPerRun(50, func() {
			if v := cars.BindDeferred(mk); v.Len() != n {
				t.Fatalf("view holds %d tuples, want %d", v.Len(), n)
			}
		}))
		touch = append(touch, testing.AllocsPerRun(50, func() {
			cars.BindDeferred(mk).At(n - 1).Node()
		}))
	}
	if bind[1] != bind[0] || touch[1] != touch[0] {
		t.Errorf("bind: %.1f allocs at 20 tuples, %.1f at 2000; bind and make a node: %.1f, %.1f",
			bind[0], bind[1], touch[0], touch[1])
	}
}

// TestTrackedJoinBytesIndependentOfUntouchedState pins deferred state
// binding to O(touched state): a tracked join that touches one state
// tuple, through a fresh binding each time as the workflow runner binds
// state per invocation, allocates as many bytes beside 20,000 cars as
// beside 2,000.
func TestTrackedJoinBytesIndependentOfUntouchedState(t *testing.T) {
	const src = "J = JOIN Cars BY CarId, Req BY Model;"
	var perJoin []uint64
	for _, n := range []int{2000, 20000} {
		env, schemas := carsEnv(nil, n, "C7")
		op := compileJoin(t, src, schemas)
		state := env.Rels["Cars"]
		e := New(nil)
		for range 2 { // the second probe indexes Cars
			if _, err := e.runJoin(op, env); err != nil {
				t.Fatal(err)
			}
		}
		b := provgraph.NewBuilder()
		e = New(b)
		req := NewRelation(schemas["Req"])
		req.Add(b, AnnTuple{Tuple: env.Rels["Req"].Tuples[0].Tuple, Prov: b.BaseTuple("req"), Mult: 1})
		env.Set("Req", req)
		join := func() {
			env.Set("Cars", state.BindDeferred(func(provgraph.NodeID) provgraph.NodeID { return b.BaseTuple("s") }))
			if res, err := e.runJoin(op, env); err != nil || res.Len() != 1 {
				t.Fatalf("join = %v, %v; want one tuple", res, err)
			}
		}
		perJoin = append(perJoin, bytesPerRun(200, join))
	}
	if perJoin[1] > perJoin[0]+64 {
		t.Errorf("a tracked join touching one state tuple allocates %d B beside 2,000 cars and %d B beside 20,000", perJoin[0], perJoin[1])
	}
}

// bytesPerRun returns the bytes f allocates per call, averaged over runs
// calls after a warm-up call, measured like testing.AllocsPerRun.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkJoin times the dealer module's joins over a 2,000-car state
// relation: a request matching no model, one matching an eighth of the
// cars, (tracked) the same with the cars bound as deferred state, and
// (hit-repeat) the state probed twice per iteration, as the dealer module
// does, each time through a fresh binding.
func BenchmarkJoin(b *testing.B) {
	const src = "J = JOIN Cars BY Model, Req BY Model;"
	for _, bc := range []struct {
		name    string
		want    string
		tracked bool
		probes  int
	}{
		{"miss", "nomodel", false, 1},
		{"hit", "model3", false, 1},
		{"hit-tracked", "model3", true, 1},
		{"hit-repeat", "model3", true, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var builder *provgraph.Builder
			if bc.tracked {
				builder = provgraph.NewBuilder()
			}
			env, schemas := carsEnv(builder, 2000, bc.want)
			op := compileJoin(b, src, schemas)
			again := compileJoin(b, "P = JOIN Cars BY Model, Req BY Model;", schemas)
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
				if bc.probes == 2 {
					if _, err := e.runJoin(again, env); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkBindDeferred times one invocation's binding of a 2,000-tuple
// state relation and the making of one of its nodes.
func BenchmarkBindDeferred(b *testing.B) {
	env, _ := carsEnv(nil, 2000, "nomodel")
	cars := env.Rels["Cars"]
	mk := func(base provgraph.NodeID) provgraph.NodeID { return base + 1 }
	b.ReportAllocs()
	for b.Loop() {
		cars.BindDeferred(mk).At(1999).Node()
	}
}
