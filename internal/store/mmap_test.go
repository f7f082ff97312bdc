package store

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"lipstick/internal/provgraph"
)

// TestMappedLabelOutlivesGraph: strings a mapped graph hands out — node
// labels, invocation module names — must stay readable after the graph
// is dropped and its mapping released. Query results carry them (a
// session delete's Removed[].Label, a lineage's input tokens) long after
// the snapshot that produced them may have been evicted.
func TestMappedLabelOutlivesGraph(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	path := filepath.Join(t.TempDir(), "labels.lpsk")
	if err := Save(path, buildSampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	label, module := mappedStrings(t, path)
	if label == "" || module == "" {
		t.Fatalf("sample has no label (%q) or module (%q)", label, module)
	}
	want := strings.Clone(label) + "/" + strings.Clone(module)

	// Drop the graph and wait for the mapping's finalizer to unmap it.
	for i := 0; i < 50 && isMapped(t, path); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if isMapped(t, path) {
		t.Skip("mapping not released by the collector; nothing to check")
	}

	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("reading a label after unmap faulted: %v", r)
		}
	}()
	if got := label + "/" + module; got != want {
		t.Fatalf("label after unmap = %q, want %q", got, want)
	}
}

// mappedStrings opens path mapped and returns a base-tuple label and an
// invocation's module name, letting the snapshot go out of scope.
func mappedStrings(t *testing.T, path string) (label, module string) {
	t.Helper()
	snap, err := LoadMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if !isMapped(t, path) {
		t.Skip("snapshot not served from a mapping")
	}
	snap.Graph.Nodes(func(n provgraph.Node) bool {
		if n.Type == provgraph.TypeBaseTuple && n.Label != "" {
			label = n.Label
			return false
		}
		return true
	})
	if snap.Graph.NumInvocations() > 0 {
		module = snap.Graph.Invocation(0).Module
	}
	return label, module
}

// isMapped reports whether path appears in the process's memory map
// (Linux /proc; elsewhere the test cannot observe the unmap and skips).
func isMapped(t *testing.T, path string) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps")
	}
	return strings.Contains(string(maps), path)
}
