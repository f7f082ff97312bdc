package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"lipstick/internal/core"
	"lipstick/internal/provgraph"
	"lipstick/internal/serve"
	"lipstick/internal/store"
)

// queryClients is the number of closed-loop clients (= nproc of the
// sandbox the rates were set on).
const queryClients = 2

// sampleEvery is the 1-in-n share of answers checked against a reference.
const sampleEvery = 64

// queryWorkload queries one mmap'd snapshot in-process through
// serve.Service with a seeded fixed mix from two closed-loop clients.
// Capture, the WAL and HTTP do no work here, and static snapshots bypass
// the query cache.
type queryWorkload struct {
	c         *config
	name      string
	path      string
	reg       *core.Registry
	svc       *serve.Service
	base      *core.QueryProcessor
	baseStats provgraph.Stats
	tg        *targets
	ops       []queryOp // one window's operations, before shuffling
	events    []provgraph.Event
	lastOut   provgraph.NodeID
	// samples are the answers kept for verification after the windows.
	samples []querySample
}

// querySample is one lineage or subgraph answer.
type querySample struct {
	kind     string
	node     provgraph.NodeID
	lineage  *serve.LineageResult
	subgraph *serve.SubgraphResult
}

func (w *queryWorkload) primary() (string, string) { return "op", "op" }

func (w *queryWorkload) setup(c *config) error {
	w.c = c
	d, events, err := capture(c.scale, c.seed)
	if err != nil {
		return err
	}
	w.events = events
	w.name = "dealership"
	w.path = filepath.Join(c.workDir, w.name+".lpsk")
	if err := writeSnapshot(w.path, d.snapshot()); err != nil {
		return err
	}
	w.reg = core.NewRegistry(core.NewSnapshotManager(0), core.WithSessionTTL(0))
	if err := w.reg.Register(w.name, w.path); err != nil {
		return err
	}
	w.svc = serve.NewRegistryService(w.reg)
	if w.base, err = w.reg.Open(w.name); err != nil {
		return err
	}
	w.baseStats = w.base.Graph().ComputeStats()
	w.tg = newTargets(w.base.Graph())
	if len(w.tg.lineage) == 0 || len(w.tg.subgraph) == 0 {
		return fmt.Errorf("no query targets (lineage %d, subgraph %d)", len(w.tg.lineage), len(w.tg.subgraph))
	}
	w.lastOut, _ = lastOutputTuple(d)
	w.samples = nil
	// Warm-up: a short untimed window touches every page of the mapping
	// and grows the traversal pools.
	warm := newResult()
	w.ops = w.opList(queryClients * c.scale.queryOps)
	if _, err := w.runWindow(-1, w.ops[:len(w.ops)/4], nil, warm); err != nil {
		return err
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %v", warm.failures)
	}
	w.samples = nil
	return nil
}

func (w *queryWorkload) teardown() {
	if w.reg != nil {
		_ = w.reg.Close()
		w.reg = nil
	}
}

func (w *queryWorkload) window(i int, tr *tracer, r *result) (window, error) {
	return w.runWindow(i, w.ops, tr, r)
}

// clientOut is what one client goroutine produced in a window.
type clientOut struct {
	lat       map[string][]float64
	attempted int64
	failures  []string
	samples   []querySample
}

// queryOp is one operation of the mix.
type queryOp struct {
	kind   string
	node   provgraph.NodeID // lineage, subgraph, delete
	find   findTarget
	module string // zoom
}

// opList builds one window's operations: 40% find, 25% lineage, 15%
// subgraph, 10% session zoom-out + zoom-in, 10% session what-if delete.
// The composition is fixed — keys are the Zipf(1.1) distribution's
// quantiles, not draws from it — so every window of every seed does the
// same work and only the order and the split between clients are random:
// one subgraph query costs a thousand finds, and a window that drew a few
// more of them by luck would read as a slower system.
func (w *queryWorkload) opList(total int) []queryOp {
	var ops []queryOp
	for k := 0; k < total*40/100; k++ {
		ops = append(ops, queryOp{kind: "find", find: w.tg.finds[k%len(w.tg.finds)]})
	}
	for _, rank := range zipfRanks(len(w.tg.lineage), total*25/100) {
		ops = append(ops, queryOp{kind: "lineage", node: w.tg.lineage[rank]})
	}
	for _, rank := range zipfRanks(len(w.tg.subgraph), total*15/100) {
		ops = append(ops, queryOp{kind: "subgraph", node: w.tg.subgraph[rank]})
	}
	for k := 0; k < total*10/100; k++ {
		ops = append(ops, queryOp{kind: "zoom", module: zoomModules[k%len(zoomModules)]})
	}
	for k := 0; len(ops) < total; k++ {
		ops = append(ops, queryOp{kind: "delete", node: w.tg.del[k%len(w.tg.del)]})
	}
	return ops
}

func (w *queryWorkload) runWindow(i int, ops []queryOp, tr *tracer, r *result) (window, error) {
	ops = slices.Clone(ops)
	rng := rand.New(rand.NewSource(w.c.seed*1_000_003 + int64(i+1)))
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	outs := make([]clientOut, queryClients)
	sessions := make([]string, queryClients)
	for cl := range sessions {
		s, err := w.svc.CreateSession(w.name)
		if err != nil {
			return window{}, err
		}
		sessions[cl] = s.ID
	}
	// Each client takes the next operation of the shuffled list when it
	// has finished its last: a fixed half each would leave one client idle
	// while the other works off the costlier half.
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < queryClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			outs[cl] = w.client(ops, &next, sessions[cl], tr)
		}(cl)
	}
	wg.Wait()
	busy := time.Since(start)
	ws := window{busy: busy, lat: map[string][]float64{}}
	for cl, o := range outs {
		for kind, v := range o.lat {
			ws.lat[kind] = append(ws.lat[kind], v...)
			ws.lat["op"] = append(ws.lat["op"], v...)
		}
		r.attempted += o.attempted
		w.samples = append(w.samples, o.samples...)
		for _, f := range o.failures {
			r.fail("%s", f)
		}
		// The session must read exactly as the base graph again.
		sess, err := w.reg.Session(sessions[cl])
		if err != nil {
			return ws, err
		}
		r.check(reflect.DeepEqual(sess.Stats(), w.baseStats),
			"window %d client %d: session stats differ from the base graph after zoom round trips", i, cl)
		if err := w.svc.CloseSession(sessions[cl]); err != nil {
			return ws, err
		}
	}
	ws.ops = float64(len(ws.lat["op"]))
	ws.unitCostUS = micros(busy) / max(ws.ops, 1)
	return ws, nil
}

// client issues operations of the window's list one after another, in
// its own session, until the list is used up.
func (w *queryWorkload) client(ops []queryOp, next *atomic.Int64, session string, tr *tracer) clientOut {
	out := clientOut{lat: map[string][]float64{}}
	fail := func(format string, args ...any) { out.failures = append(out.failures, fmt.Sprintf(format, args...)) }
	traversals := 0
	for {
		k := int(next.Add(1) - 1)
		if k >= len(ops) {
			return out
		}
		o := ops[k]
		var op func() error
		switch o.kind {
		case "find":
			op = func() error {
				res, err := w.svc.Find(w.path, o.find.req)
				if err == nil && res.Count == 0 {
					fail("find %+v matched nothing", o.find.req)
				}
				return err
			}
		case "lineage":
			traversals++
			sampled := traversals%sampleEvery == 0
			op = func() error {
				res, err := w.svc.Lineage(w.path, strconv.Itoa(int(o.node)))
				if err == nil && sampled {
					out.samples = append(out.samples, querySample{kind: o.kind, node: o.node, lineage: res})
				}
				return err
			}
		case "subgraph":
			traversals++
			sampled := traversals%sampleEvery == 0
			op = func() error {
				res, err := w.svc.Subgraph(w.path, strconv.Itoa(int(o.node)))
				if err == nil && sampled {
					out.samples = append(out.samples, querySample{kind: o.kind, node: o.node, subgraph: res})
				}
				return err
			}
		case "zoom":
			op = func() error {
				if _, err := w.svc.SessionZoom(session, serve.SessionZoomRequest{Modules: []string{o.module}}); err != nil {
					return err
				}
				in, err := w.svc.SessionZoom(session, serve.SessionZoomRequest{In: true})
				if err == nil && (in.NodesAfter != w.baseStats.Nodes || len(in.ZoomedOut) != 0) {
					fail("zoom round trip of %s left %d nodes (base %d), zoomed out %v", o.module, in.NodesAfter, w.baseStats.Nodes, in.ZoomedOut)
				}
				return err
			}
		case "delete":
			op = func() error {
				res, err := w.svc.SessionDelete(session, serve.SessionDeleteRequest{Nodes: []provgraph.NodeID{o.node}, WhatIf: true})
				if err == nil && (res.Applied || res.NodesAfter != w.baseStats.Nodes) {
					fail("what-if delete of %d changed the session (%d nodes, base %d)", o.node, res.NodesAfter, w.baseStats.Nodes)
				}
				return err
			}
		}
		var err error
		d := tr.sampled(k, "serve.Service/"+o.kind, func() { err = op() })
		out.attempted++
		if err != nil {
			fail("%s: %v", o.kind, err)
			continue
		}
		out.lat[o.kind] = append(out.lat[o.kind], micros(d))
	}
}

// exprTokens is the sorted multiset of a provenance expression's tokens.
// A mapped snapshot and a replayed graph list a node's in-neighbours in
// different orders, so their expressions are equal only up to the
// commutativity of + and ·.
func exprTokens(expr string) []string {
	tokens := strings.FieldsFunc(expr, func(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' })
	sort.Strings(tokens)
	return tokens
}

func sortedIDs(ids []provgraph.NodeID) []provgraph.NodeID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

func (w *queryWorkload) finish(c *config, plain []window, tr *tracer, r *result) error {
	// Sampled answers against the same queries on a replay of the capture.
	ref, err := provgraph.Replay(w.events)
	if err != nil {
		return err
	}
	refQP := core.NewQueryProcessor(&store.Snapshot{Graph: ref})
	for _, s := range w.samples {
		switch s.kind {
		case "lineage":
			want := refQP.Lineage(s.node)
			r.check(s.lineage.AncestorCount == want.AncestorCount && slices.Equal(s.lineage.Inputs, want.Inputs) &&
				slices.Equal(s.lineage.StateTuples, want.StateTuples) && slices.Equal(s.lineage.Modules, want.Modules) &&
				slices.Equal(exprTokens(s.lineage.Provenance), exprTokens(refQP.Expr(s.node).String())),
				"lineage of %d differs from the replayed graph's", s.node)
		case "subgraph":
			want := refQP.Subgraph(s.node)
			r.check(s.subgraph.Size == want.Size() && slices.Equal(sortedIDs(s.subgraph.Nodes), sortedIDs(want.Nodes)),
				"subgraph of %d differs from the replayed graph's", s.node)
		}
	}

	r.detail["query_ops_s"] = r.e2e["ops_s"]
	r.detail["query_p99_us"] = kindPct(plain, "op", 99)
	for _, kind := range []string{"find", "lineage", "subgraph", "zoom", "delete"} {
		r.detail[kind+"_p50_us"] = kindPct(plain, kind, 50)
	}

	if _, err := storedSnapshot(w.path, w.baseStats.Nodes, w.lastOut, r); err != nil {
		return err
	}
	if tr != nil {
		w.probes(tr, r)
	}
	return nil
}

// probes runs the layer ladders of the traced run: each sampled
// operation is issued at serve.Service, then core.QueryProcessor, then
// provgraph, and a layer's self time is its rung minus the next.
func (w *queryWorkload) probes(tr *tracer, r *result) {
	g := w.base.Graph()
	qp := w.base
	const reps = 200

	var handlerSelf, exprSelf, coreLineage, visits []float64
	// Keys follow the windows' own distribution.
	for _, rank := range zipfRanks(len(w.tg.lineage), reps) {
		node := w.tg.lineage[rank]
		arg := strconv.Itoa(int(node))
		var anc []provgraph.NodeID
		d := tr.ladder(
			rung{"serve.Service.Lineage", func() { _, _ = w.svc.Lineage(w.path, arg) }},
			rung{"core.QueryProcessor.Lineage+Expr", func() { _ = qp.Lineage(node); _ = qp.Expr(node).String() }},
			rung{"core.QueryProcessor.Lineage", func() { _ = qp.Lineage(node) }},
			rung{"provgraph.Graph.Ancestors", func() { anc = g.Ancestors(node) }},
		)
		handlerSelf = append(handlerSelf, d[0]-d[1])
		exprSelf = append(exprSelf, d[1]-d[2])
		coreLineage = append(coreLineage, d[2])
		visits = append(visits, float64(len(anc)))
		tr.count("provgraph.visits", int64(len(anc)))
	}
	r.layer["serve.handler_self_us"] = median(handlerSelf)
	r.layer["core.expr_us"] = median(exprSelf)
	r.layer["core.lineage_us"] = median(coreLineage)
	r.layer["provgraph.visits_per_lineage"] = mean(visits)

	var subgraphUS []float64
	var bfsNS, bfsVisits float64
	for _, rank := range zipfRanks(len(w.tg.subgraph), reps/4) {
		node := w.tg.subgraph[rank]
		arg := strconv.Itoa(int(node))
		var anc []provgraph.NodeID
		d := tr.ladder(
			rung{"serve.Service.Subgraph", func() { _, _ = w.svc.Subgraph(w.path, arg) }},
			rung{"core.QueryProcessor.Subgraph", func() { _ = qp.Subgraph(node) }},
			rung{"provgraph.Graph.Ancestors", func() { anc = g.Ancestors(node) }},
		)
		subgraphUS = append(subgraphUS, d[1])
		bfsNS += d[2] * 1e3
		bfsVisits += float64(len(anc))
	}
	r.layer["core.subgraph_us"] = median(subgraphUS)
	r.layer["provgraph.bfs_ns_per_visit"] = bfsNS / max(bfsVisits, 1)

	var findNS []float64
	for i := 0; i < reps; i++ {
		ft := w.tg.finds[i%len(w.tg.finds)]
		d := tr.root("core.QueryProcessor.FindNodes", func() { _ = qp.FindNodes(ft.filter) })
		findNS = append(findNS, micros(d)*1e3)
	}
	r.layer["core.find_ns"] = median(findNS)

	var zoomOut, zoomIn, del, changes []float64
	for i := 0; i < reps/4; i++ {
		module := zoomModules[i%len(zoomModules)]
		ov := provgraph.NewOverlay(g)
		var rec *provgraph.ZoomRecord
		d := tr.root("provgraph.Overlay.ZoomOut", func() { rec = ov.ZoomOut(module) })
		zoomOut = append(zoomOut, micros(d))
		changes = append(changes, float64(ov.Changes()))
		d = tr.root("provgraph.Overlay.ZoomIn", func() { ov.ZoomIn(rec) })
		zoomIn = append(zoomIn, micros(d))
		node := w.tg.del[i%len(w.tg.del)]
		d = tr.root("provgraph.Overlay.PropagateDeletion", func() { _ = ov.PropagateDeletion(node) })
		del = append(del, micros(d))
	}
	r.layer["provgraph.zoomout_us"] = median(zoomOut)
	r.layer["provgraph.zoomin_us"] = median(zoomIn)
	r.layer["provgraph.delete_propagate_us"] = median(del)
	r.layer["provgraph.overlay_changes"] = mean(changes)

	var create, zoom, sdel []float64
	for i := 0; i < reps/4; i++ {
		var sess *core.Session
		d := tr.root("core.Registry.CreateSession", func() { sess, _ = w.reg.CreateSession(w.name) })
		if sess == nil {
			continue
		}
		create = append(create, micros(d))
		module := zoomModules[i%len(zoomModules)]
		d = tr.root("core.Session.ZoomOut+ZoomIn", func() {
			_, _ = sess.ZoomOut(module)
			_, _ = sess.ZoomIn()
		})
		zoom = append(zoom, micros(d))
		node := w.tg.del[i%len(w.tg.del)]
		d = tr.root("core.Session.WhatIfDelete", func() { _ = sess.WhatIfDelete(node) })
		sdel = append(sdel, micros(d))
		_ = w.reg.CloseSession(sess.ID())
	}
	r.layer["core.session_create_us"] = median(create)
	r.layer["core.session_zoom_us"] = median(zoom)
	r.layer["core.session_delete_us"] = median(sdel)
}
