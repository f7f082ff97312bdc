package store_test

import (
	"path/filepath"
	"testing"

	"lipstick/internal/store"
	"lipstick/internal/workflowgen"
)

// TestLoadMappedAllocsDoNotScale guards the mapped open without timing
// it: opening a v3 snapshot of a synthetic graph makes the same number of
// allocations at 5,000 and at 50,000 nodes, so no per-node decode or
// per-node allocation has crept into the open.
func TestLoadMappedAllocsDoNotScale(t *testing.T) {
	if !store.MmapSupported {
		t.Skip("snapshots are not memory-mapped on this platform")
	}
	allocs := make(map[int]float64)
	for _, n := range []int{5_000, 50_000} {
		g, _ := workflowgen.SyntheticGraph(n, 1)
		path := filepath.Join(t.TempDir(), "g.lpsk")
		if err := store.Save(path, &store.Snapshot{Graph: g}); err != nil {
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(10, func() {
			if _, err := store.LoadMapped(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[5_000] != allocs[50_000] {
		t.Errorf("LoadMapped allocations grow with the graph: %v at 5k nodes, %v at 50k", allocs[5_000], allocs[50_000])
	}
}
