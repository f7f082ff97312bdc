package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lipstick/internal/provgraph"
)

// mutilateSample returns the sample snapshot with dead nodes (via deletion
// propagation) and a zoom record, exercising every section a v3 file can
// carry.
func mutilateSample(t *testing.T) *Snapshot {
	t.Helper()
	snap := buildSampleSnapshot()
	var base []provgraph.NodeID
	snap.Graph.Nodes(func(n provgraph.Node) bool {
		if n.Type == provgraph.TypeBaseTuple {
			base = append(base, n.ID)
		}
		return true
	})
	ov := provgraph.NewOverlay(snap.Graph)
	if res := ov.Delete(base...); res.Size() == 0 {
		t.Fatal("deletion removed nothing")
	}
	if rec := ov.ZoomOut("M_test"); rec.HiddenCount() == 0 {
		t.Fatal("zoom hid nothing")
	}
	snap.Graph = ov.Materialize()
	return snap
}

// legacyFixtures names the checked-in snapshots the removed v1/v2 writers
// produced, per format version: mutilateSample, and the dealership and
// Arctic runs of serve's endpoint equivalence test (587 and 281 slots).
var legacyFixtures = map[string][]string{
	"v1": {"sample.v1.lpsk", "dealership-seq.v1.lpsk", "arctic-seq.v1.lpsk"},
	"v2": {"sample.v2.lpsk", "dealership-seq.v2.lpsk", "arctic-seq.v2.lpsk"},
}

// readFixture returns the bytes of a file in testdata.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestV3CrossVersionRoundTrip upgrades every legacy fixture through the
// columnar writer: v1 → v3 and v2 → v3 must preserve structure, dead-node
// sets and outputs exactly and persist the reference postings, and the
// sample must still read as the snapshot it was written from.
func TestV3CrossVersionRoundTrip(t *testing.T) {
	for _, from := range []string{"v1", "v2"} {
		t.Run(from+"-to-v3", func(t *testing.T) {
			for _, name := range legacyFixtures[from] {
				loaded, err := Read(bytes.NewReader(readFixture(t, name)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := Read(bytes.NewReader(encodeV3(t, loaded)))
				if err != nil {
					t.Fatalf("%s re-saved as v3: %v", name, err)
				}
				if !loaded.Graph.StructurallyEqual(got.Graph) {
					t.Errorf("%s: graph changed across the version upgrade", name)
				}
				if !reflect.DeepEqual(loaded.Graph.DeadNodes(), got.Graph.DeadNodes()) {
					t.Errorf("%s: dead node set changed across the version upgrade", name)
				}
				if !reflect.DeepEqual(loaded.Outputs, got.Outputs) {
					t.Errorf("%s: outputs changed across the version upgrade", name)
				}
				samePostings(t, got.Graph, got.Postings, BuildIndex(loaded.Graph))
			}
			orig := mutilateSample(t)
			sample, err := Read(bytes.NewReader(readFixture(t, legacyFixtures[from][0])))
			if err != nil {
				t.Fatal(err)
			}
			if !orig.Graph.StructurallyEqual(sample.Graph) || !reflect.DeepEqual(orig.Outputs, sample.Outputs) {
				t.Error("sample fixture no longer reads as mutilateSample")
			}
		})
	}
}

// samePostings compares two postings views across every key present in
// the graph (plus misses), treating nil and empty lists as equal.
func samePostings(t *testing.T, g *provgraph.Graph, got, want Postings) {
	t.Helper()
	eq := func(what string, a, b interface{}) {
		av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
		if av.Len() == 0 && bv.Len() == 0 {
			return
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: columnar %v != map %v", what, a, b)
		}
	}
	if got.Coverage() != want.Coverage() {
		t.Errorf("coverage = %d, want %d", got.Coverage(), want.Coverage())
	}
	for ty := provgraph.TypeWorkflowInput; ty <= provgraph.TypeZoom; ty++ {
		eq("type "+ty.String(), got.TypeIDs(ty), want.TypeIDs(ty))
	}
	for op := provgraph.OpNone; op <= provgraph.OpConst; op++ {
		eq("op "+op.String(), got.OpIDs(op), want.OpIDs(op))
	}
	labels := map[string]bool{"no-such-label": true}
	g.AllNodesDo(func(n provgraph.Node) bool {
		if n.Label != "" {
			labels[n.Label] = true
		}
		return true
	})
	for l := range labels {
		eq("label "+l, got.LabelIDs(l), want.LabelIDs(l))
	}
	modules := map[string]bool{"no-such-module": true}
	g.Invocations(func(inv *provgraph.Invocation) bool {
		modules[inv.Module] = true
		return true
	})
	for m := range modules {
		eq("module "+m, got.ModuleIDs(m), want.ModuleIDs(m))
		eq("modinvs "+m, got.ModuleInvocations(m), want.ModuleInvocations(m))
	}
}

// TestV3PostingsMatchBuiltIndex: the columnar postings decoded from a v3
// file answer identically to a fresh map-based build over the same graph.
func TestV3PostingsMatchBuiltIndex(t *testing.T) {
	snap := mutilateSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Postings == nil {
		t.Fatal("v3 snapshot loaded without postings")
	}
	samePostings(t, got.Graph, got.Postings, BuildIndex(got.Graph))
}

// TestLoadMappedEquivalence: the mapped open must be observationally
// identical to the buffered one — same graph, same outputs (after the
// deferred decode), same postings answers.
func TestLoadMappedEquivalence(t *testing.T) {
	snap := mutilateSample(t)
	path := filepath.Join(t.TempDir(), "prov.lpsk")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	strict, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported {
		if mapped.Outputs != nil || mapped.LazyOutputs == nil {
			t.Error("mapped open decoded outputs eagerly")
		}
	}
	if !strict.Graph.StructurallyEqual(mapped.Graph) {
		t.Error("mapped graph differs from buffered load")
	}
	outs := mapped.Outputs
	if mapped.LazyOutputs != nil {
		if outs, err = mapped.LazyOutputs(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(outs, strict.Outputs) {
		t.Error("mapped outputs differ from buffered load")
	}
	if mapped.Postings == nil {
		t.Fatal("mapped open produced no postings")
	}
	samePostings(t, mapped.Graph, mapped.Postings, BuildIndex(strict.Graph))
}

// TestMappedGraphCopyOnWrite: mutating a graph opened from a mapped file
// (kills of a deletion propagation, appends, a zoom materialized onto a
// clone) must never write through to the file — a fresh open of the same
// path sees the original bytes.
func TestMappedGraphCopyOnWrite(t *testing.T) {
	snap := buildSampleSnapshot()
	path := filepath.Join(t.TempDir(), "prov.lpsk")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	g := mapped.Graph
	// Mutate every column family: liveness, labels/values (append),
	// adjacency, invocations.
	var anyLive provgraph.NodeID = provgraph.InvalidNode
	g.Nodes(func(n provgraph.Node) bool {
		if n.Type == provgraph.TypeBaseTuple {
			anyLive = n.ID
			return false
		}
		return true
	})
	if anyLive == provgraph.InvalidNode {
		t.Fatal("no base tuple in sample")
	}
	res := g.PropagateDeletion(anyLive)
	if res.Size() == 0 {
		t.Fatal("deletion removed nothing")
	}
	for _, id := range res.Removed {
		if err := provgraph.Apply(g, &provgraph.Event{Kind: provgraph.EvKill, Src: id}); err != nil {
			t.Fatal(err)
		}
	}
	fresh := g.AddNode(provgraph.Node{Type: provgraph.TypeBaseTuple, Class: provgraph.ClassP, Label: "cow-probe"})
	g.AddEdge(fresh, provgraph.NodeID(0))
	// A zoom materialized onto a clone that shares the mapped columns.
	ov := provgraph.NewOverlay(g)
	if rec := ov.ZoomOut("M_test"); rec.HiddenCount() == 0 {
		t.Fatal("zoom hid nothing")
	}
	ov.Materialize()

	reopened, err := LoadMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Graph.StructurallyEqual(reopened.Graph) {
		t.Error("mutations through a mapped graph leaked into the file")
	}
	if len(reopened.Graph.DeadNodes()) != 0 {
		t.Errorf("reopened graph has dead nodes: %v", reopened.Graph.DeadNodes())
	}
}

// TestV3CorruptRejection sweeps structured corruptions of a valid v3 file:
// truncations, trailer damage, footer damage, and section-table tampering
// all must error out of the strict reader without panicking.
func TestV3CorruptRejection(t *testing.T) {
	snap := mutilateSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(valid); n += 11 {
			if _, err := Read(bytes.NewReader(valid[:n])); err == nil {
				t.Fatalf("truncation at %d bytes accepted", n)
			}
		}
	})
	t.Run("trailer-bytes", func(t *testing.T) {
		for i := len(valid) - v3TrailerLen; i < len(valid); i++ {
			bad := append([]byte(nil), valid...)
			bad[i] ^= 0xff
			if _, err := Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("flipped trailer byte %d accepted", i-len(valid))
			}
		}
	})
	t.Run("footer-bytes", func(t *testing.T) {
		// The footer is crc-guarded: flipping any byte must be caught.
		footerLen := int(getU32(valid[len(valid)-8:]))
		start := len(valid) - v3TrailerLen - footerLen
		for i := start; i < start+footerLen; i += 3 {
			bad := append([]byte(nil), valid...)
			bad[i] ^= 0xff
			if _, err := Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("flipped footer byte at offset %d accepted", i)
			}
		}
	})
	t.Run("garbage-footer", func(t *testing.T) {
		// Replace the whole footer+trailer with noise of the same length.
		bad := append([]byte(nil), valid...)
		for i := len(bad) - v3TrailerLen - 16; i < len(bad); i++ {
			bad[i] = byte(i * 7)
		}
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatal("garbage footer accepted")
		}
	})
	t.Run("unknown-type", func(t *testing.T) {
		// A node type past the enum would index past the type postings
		// when the snapshot is written again.
		bad := append([]byte(nil), valid...)
		secs, err := parseV3Footer(bad)
		if err != nil {
			t.Fatal(err)
		}
		secs.secs[secType][0] = byte(provgraph.TypeZoom) + 1
		if _, err := Read(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "unknown class, type or op") {
			t.Errorf("unknown node type: %v", err)
		}
	})
	t.Run("unordered-postings", func(t *testing.T) {
		// Corrupting section payload bytes leaves the footer intact, so
		// only the strict validator can catch it. Swap the first two ids
		// of the type-postings id section (the section slice aliases the
		// copied buffer, so the swap edits the file bytes in place).
		bad := append([]byte(nil), valid...)
		secs, err := parseV3Footer(bad)
		if err != nil {
			t.Fatal(err)
		}
		ids := secs.secs[secPostTypeIDs]
		offs := secs.secs[secPostTypeOffs]
		// Swap the first two ids of a bucket that has at least two, so
		// the damage stays inside one postings list.
		lo := -1
		for j := 0; j+8 <= len(offs); j += 4 {
			if getU32(offs[j+4:])-getU32(offs[j:]) >= 2 {
				lo = int(getU32(offs[j:])) * 4
				break
			}
		}
		if lo < 0 || lo+8 > len(ids) {
			t.Skip("sample postings too small to scramble")
		}
		var tmp [4]byte
		copy(tmp[:], ids[lo:lo+4])
		copy(ids[lo:lo+4], ids[lo+4:lo+8])
		copy(ids[lo+4:lo+8], tmp[:])
		if _, err := Read(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "ascending") {
			t.Errorf("scrambled postings: %v", err)
		}
	})
}
