package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// TestSessionsShareMappedBaseConcurrently: the zoom kernel builds the
// base's orphan set lazily, on the shared immutable base graph, and the
// sessions resolve invocations from the shared snapshot postings. Eight
// sessions over one mapped snapshot zoom and what-if delete concurrently
// — the concurrent phase runs first, so it is what races to build that
// shared state — and each session's
// answers must equal the same script run sequentially afterwards, with
// the session reading exactly as the base after every zoom round trip.
// Run with -race.
func TestSessionsShareMappedBaseConcurrently(t *testing.T) {
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 200, NumExec: 4, Seed: 3, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deal.lpsk")
	if err := store.Save(path, &store.Snapshot{Graph: run.Runner.Graph()}); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(NewSnapshotManager(0), WithSessionTTL(0))
	defer r.Close()
	if err := r.Register("deal", path); err != nil {
		t.Fatal(err)
	}
	base, err := r.Open("deal")
	if err != nil {
		t.Fatal(err)
	}
	g := base.Graph()
	baseStats := g.ComputeStats()
	var modules []string
	g.Invocations(func(inv *provgraph.Invocation) bool {
		if !slices.Contains(modules, inv.Module) {
			modules = append(modules, inv.Module)
		}
		return true
	})
	targets := workflowgen.HighFanoutNodes(g, 8)

	// script is one session's work; it returns the session's answers.
	script := func(k int) ([]string, error) {
		s, err := r.CreateSession("deal")
		if err != nil {
			return nil, err
		}
		defer r.CloseSession(s.ID())
		var out []string
		for i := range modules {
			module := modules[(k+i)%len(modules)]
			target := targets[(k+i)%len(targets)]
			rec, err := s.ZoomOut(module)
			if err != nil {
				return nil, err
			}
			zoomed := s.WhatIfDelete(target)
			out = append(out, fmt.Sprint(module, rec.HiddenCount(), rec.ZoomNodes(), s.NumNodes(), zoomed.Removed))
			if _, err := s.ZoomIn(); err != nil {
				return nil, err
			}
			if st := s.Stats(); !reflect.DeepEqual(st, baseStats) {
				return nil, fmt.Errorf("session %d: stats after zooming %s in and out = %+v, base %+v", k, module, st, baseStats)
			}
			out = append(out, fmt.Sprint(s.WhatIfDelete(target).Removed, s.Subgraph(target).Nodes))
		}
		return out, nil
	}

	const sessions = 8
	concurrent := make([][]string, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			concurrent[k], errs[k] = script(k)
		}(k)
	}
	wg.Wait()
	for k := 0; k < sessions; k++ {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		want, err := script(k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(concurrent[k], want) {
			t.Errorf("session %d: concurrent answers differ from a sequential run", k)
		}
	}
}

// TestMappedSnapshotConcurrentTraversals: two goroutines answer Subgraph
// and Ancestors on one mapped snapshot graph at once, drawing their BFS
// scratch from the same pool. Every answer must equal the sequential
// answer taken first. Run with -race.
func TestMappedSnapshotConcurrentTraversals(t *testing.T) {
	run, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 200, NumExec: 4, Seed: 5, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deal.lpsk")
	if err := store.Save(path, &store.Snapshot{Graph: run.Runner.Graph()}); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(NewSnapshotManager(0), WithSessionTTL(0))
	defer r.Close()
	if err := r.Register("deal", path); err != nil {
		t.Fatal(err)
	}
	qp, err := r.Open("deal")
	if err != nil {
		t.Fatal(err)
	}
	g := qp.Graph()
	targets := workflowgen.HighFanoutNodes(g, 4)
	g.Nodes(func(n provgraph.Node) bool {
		if n.Type == provgraph.TypeModuleOutput && n.ID%5 == 0 {
			targets = append(targets, n.ID)
		}
		return len(targets) < 40
	})
	answers := func(id provgraph.NodeID) string {
		return fmt.Sprint(g.Subgraph(id).Nodes, g.Ancestors(id))
	}
	want := make([]string, len(targets))
	for i, id := range targets {
		want[i] = answers(id)
	}
	const readers, rounds = 2, 10
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*len(targets); r++ {
				i := (r + k*len(targets)/readers) % len(targets)
				if got := answers(targets[i]); got != want[i] {
					errs[k] = fmt.Errorf("reader %d: answers for %d differ from the sequential ones", k, targets[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
