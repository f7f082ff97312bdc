package serve

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strconv"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/store"
)

// legacyWorkloads name the v1/v2 fixtures in store's testdata that the
// removed legacy writers made from the two paper workloads: a fine-grained
// dealership run (120 cars, 3 executions, seed 3; 587 slots) and a
// fine-grained Arctic run (4 parallel stations, monthly selectivity, 2
// executions, seed 3; 281 slots), outputs in sorted node/relation order.
var legacyWorkloads = []string{"dealership-seq", "arctic-seq"}

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColumnarLegacyEndpointEquivalence: every query endpoint must answer
// byte-identically whether a snapshot is decoded from a legacy v1 or v2
// file or opened from its columnar v3 re-save (memory-mapped where
// supported), on both paper workloads.
func TestColumnarLegacyEndpointEquivalence(t *testing.T) {
	for _, name := range legacyWorkloads {
		t.Run(name, func(t *testing.T) {
			for _, version := range []string{"v1", "v2"} {
				t.Run(version, func(t *testing.T) {
					legacyPath := filepath.Join("..", "store", "testdata", name+"."+version+".lpsk")
					snap, err := store.Load(legacyPath)
					if err != nil {
						t.Fatal(err)
					}
					columnarPath := filepath.Join(t.TempDir(), "columnar.lpsk")
					if err := store.Save(columnarPath, snap); err != nil {
						t.Fatal(err)
					}
					assertEndpointsEqual(t, legacyPath, columnarPath)
				})
			}
		})
	}
}

// assertEndpointsEqual asks every query endpoint the same questions of two
// snapshot files and requires byte-identical answers.
func assertEndpointsEqual(t *testing.T, legacyPath, columnarPath string) {
	t.Helper()
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
}
