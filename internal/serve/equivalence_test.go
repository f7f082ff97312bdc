package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
	"lipstick/internal/workflow"
	"lipstick/internal/workflowgen"
)

// runSnapshot assembles a deterministic snapshot from a finished run
// (outputs in sorted node/relation order, like Tracker.Snapshot).
func runSnapshot(r *workflow.Runner, execs []*workflow.Execution) *store.Snapshot {
	snap := &store.Snapshot{Graph: r.Graph()}
	for _, e := range execs {
		nodes := make([]string, 0, len(e.Outputs))
		for node := range e.Outputs {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			rels := e.Outputs[node]
			names := make([]string, 0, len(rels))
			for rel := range rels {
				names = append(names, rel)
			}
			sort.Strings(names)
			for _, rel := range names {
				dump := store.RelationDump{Execution: e.Index, Node: node, Relation: rel}
				for _, tup := range rels[rel].Tuples {
					dump.Tuples = append(dump.Tuples, store.AnnotatedTuple{
						Tuple: tup.Tuple, Prov: tup.Prov, Mult: tup.Mult,
					})
				}
				snap.Outputs = append(snap.Outputs, dump)
			}
		}
	}
	return snap
}

// equivalenceWorkloads runs the two paper workloads and returns each
// run's snapshot.
func equivalenceWorkloads(t *testing.T) map[string]*store.Snapshot {
	t.Helper()
	dr, err := workflowgen.RunDealership(workflowgen.DealershipParams{
		NumCars: 120, NumExec: 3, Seed: 3, Gran: workflow.Fine,
	})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := workflowgen.NewArcticRun(workflowgen.ArcticParams{
		Stations: 4, Topology: workflowgen.Parallel,
		Selectivity: workflowgen.SelMonth, NumExec: 2, Seed: 3,
		Gran: workflow.Fine, HistoryYears: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.ExecuteAll(); err != nil {
		t.Fatal(err)
	}
	return map[string]*store.Snapshot{
		"dealership-seq": runSnapshot(dr.Runner, dr.Executions),
		"arctic-seq":     runSnapshot(ar.Runner, ar.Executions),
	}
}

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColumnarLegacyEndpointEquivalence is the tentpole's acceptance gate:
// every query endpoint must answer byte-identically whether the snapshot
// was decoded from the legacy v1 format or opened from a columnar v3 file
// (memory-mapped where supported), on both paper workloads.
func TestColumnarLegacyEndpointEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("workload tracking is slow in -short mode")
	}
	for name, snap := range equivalenceWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			legacyPath := filepath.Join(dir, "legacy.lpsk")
			var v1 bytes.Buffer
			if err := store.WriteV1(&v1, snap); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(legacyPath, v1.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			columnarPath := filepath.Join(dir, "columnar.lpsk")
			if err := store.Save(columnarPath, snap); err != nil {
				t.Fatal(err)
			}

			svc := NewService(nil)
			// Deterministic query arguments: the first live module-output
			// node and the first invocation's module.
			lqp, err := svc.Manager().Open(legacyPath)
			if err != nil {
				t.Fatal(err)
			}
			probe := provgraph.InvalidNode
			lqp.Graph().Nodes(func(n provgraph.Node) bool {
				if n.Type == provgraph.TypeModuleOutput {
					probe = n.ID
					return false
				}
				return true
			})
			if probe == provgraph.InvalidNode {
				t.Fatal("workload produced no module-output nodes")
			}
			module := lqp.Graph().Invocation(0).Module
			nodeArg := strconv.Itoa(int(probe))

			checks := []struct {
				name string
				get  func(path string) ([]byte, error)
			}{
				{"info", func(p string) ([]byte, error) {
					r, err := svc.Info(p)
					return jsonBytes(t, r), err
				}},
				{"outputs", func(p string) ([]byte, error) {
					r, err := svc.Outputs(p)
					return jsonBytes(t, r), err
				}},
				{"find-type", func(p string) ([]byte, error) {
					r, err := svc.Find(p, FindRequest{Types: []string{"o"}})
					return jsonBytes(t, r), err
				}},
				{"find-module", func(p string) ([]byte, error) {
					r, err := svc.Find(p, FindRequest{Module: module, Classes: []string{"p"}})
					return jsonBytes(t, r), err
				}},
				{"subgraph", func(p string) ([]byte, error) {
					r, err := svc.Subgraph(p, nodeArg)
					return jsonBytes(t, r), err
				}},
				{"lineage", func(p string) ([]byte, error) {
					r, err := svc.Lineage(p, nodeArg)
					return jsonBytes(t, r), err
				}},
				{"zoom", func(p string) ([]byte, error) {
					r, err := svc.Zoom(p, module)
					return jsonBytes(t, r), err
				}},
				{"delete", func(p string) ([]byte, error) {
					r, err := svc.Delete(p, nodeArg)
					return jsonBytes(t, r), err
				}},
				{"dot", func(p string) ([]byte, error) {
					var buf bytes.Buffer
					err := svc.WriteDOT(p, &buf)
					return buf.Bytes(), err
				}},
				{"opm", func(p string) ([]byte, error) {
					var buf bytes.Buffer
					err := svc.WriteOPM(p, &buf)
					return buf.Bytes(), err
				}},
				{"json", func(p string) ([]byte, error) {
					var buf bytes.Buffer
					err := svc.WriteJSON(p, &buf)
					return buf.Bytes(), err
				}},
			}
			for _, c := range checks {
				legacy, err := c.get(legacyPath)
				if err != nil {
					t.Fatalf("%s over legacy snapshot: %v", c.name, err)
				}
				columnar, err := c.get(columnarPath)
				if err != nil {
					t.Fatalf("%s over columnar snapshot: %v", c.name, err)
				}
				if !bytes.Equal(legacy, columnar) {
					t.Errorf("%s: columnar answer differs from legacy\nlegacy:   %.200s\ncolumnar: %.200s",
						c.name, legacy, columnar)
				}
			}
		})
	}
}
