package store

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lipstick/internal/nested"
	"lipstick/internal/provgraph"
)

// buildSampleSnapshot creates a small tracked graph with all node flavors.
func buildSampleSnapshot() *Snapshot {
	b := provgraph.NewBuilder()
	in := b.WorkflowInput("I0")
	inv := b.BeginInvocation("M_test", "n1", 0)
	i1 := b.ModuleInput(inv, in)
	base := b.BaseTuple("s0")
	s1 := b.StateTuple(inv, base)
	j := b.Join(i1, s1)
	d := b.Group(j)
	agg := b.Aggregate("COUNT", []provgraph.AggContribution{{TupleProv: j, Value: nested.Int(1)}}, nested.Int(1))
	proj := b.Project(d)
	b.G.AddEdge(agg, proj)
	bb := b.BlackBox("fn", true, nested.Float(2.5), proj)
	out := b.ModuleOutput(inv, proj, bb)

	return &Snapshot{
		Graph: b.G,
		Outputs: []RelationDump{{
			Execution: 0, Node: "n1", Relation: "R",
			Tuples: []AnnotatedTuple{{
				Tuple: nested.NewTuple(nested.Str("x"), nested.Int(7),
					nested.BagVal(nested.NewBag(nested.NewTuple(nested.Float(1.5))))),
				Prov: out, Mult: 2,
			}},
		}},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	snap := buildSampleSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Graph.StructurallyEqual(got.Graph) {
		t.Error("graph round-trip mismatch")
	}
	if got.Graph.NumInvocations() != 1 {
		t.Fatalf("invocations = %d", got.Graph.NumInvocations())
	}
	inv := got.Graph.Invocation(0)
	if inv.Module != "M_test" || inv.NodeName != "n1" || len(inv.Inputs) != 1 || len(inv.States) != 1 || len(inv.Outputs) != 1 {
		t.Errorf("invocation = %+v", inv)
	}
	if len(got.Outputs) != 1 || got.Outputs[0].Relation != "R" {
		t.Fatalf("outputs = %+v", got.Outputs)
	}
	ot := got.Outputs[0].Tuples[0]
	if !ot.Tuple.Equal(snap.Outputs[0].Tuples[0].Tuple) || ot.Mult != 2 {
		t.Errorf("tuple round-trip: %v", ot)
	}
	// Node values survive.
	found := false
	got.Graph.Nodes(func(n provgraph.Node) bool {
		if n.Op == provgraph.OpAgg && n.Value.Equal(nested.Int(1)) {
			found = true
		}
		return true
	})
	if !found {
		t.Error("aggregate node value lost")
	}
}

// roundTripWriters enumerates the format versions a snapshot must survive.
var roundTripWriters = []struct {
	name      string
	write     func(io.Writer, *Snapshot) error
	wantIndex bool
}{
	{"v1-legacy", WriteV1, false},
	{"v2-indexed", WriteV2, true},
	{"v3-columnar", Write, false}, // v3 carries Postings instead of Index
}

// TestRoundTripWithDeadNodes kills nodes via deletion propagation,
// materialized, then round-trips through every format version.
func TestRoundTripWithDeadNodes(t *testing.T) {
	for _, v := range roundTripWriters {
		t.Run(v.name, func(t *testing.T) {
			snap := buildSampleSnapshot()
			var base NodeIDs
			snap.Graph.Nodes(func(n provgraph.Node) bool {
				if n.Type == provgraph.TypeBaseTuple {
					base = append(base, n.ID)
				}
				return true
			})
			if len(base) == 0 {
				t.Fatal("sample has no base tuples")
			}
			ov := provgraph.NewOverlay(snap.Graph)
			if res := ov.Delete(base...); res.Size() == 0 {
				t.Fatal("deletion removed nothing")
			}
			snap.Graph = ov.Materialize()
			if len(snap.Graph.DeadNodes()) == 0 {
				t.Fatal("no dead nodes after deletion")
			}

			var buf bytes.Buffer
			if err := v.write(&buf, snap); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !snap.Graph.StructurallyEqual(got.Graph) {
				t.Error("graph with dead nodes round-trip mismatch")
			}
			if !reflect.DeepEqual(snap.Graph.DeadNodes(), got.Graph.DeadNodes()) {
				t.Error("dead node set changed")
			}
			if (got.Index != nil) != v.wantIndex {
				t.Errorf("index presence = %v, want %v", got.Index != nil, v.wantIndex)
			}
		})
	}
}

// NodeIDs is a shorthand used by the round-trip tests.
type NodeIDs = []provgraph.NodeID

// TestRoundTripWithZoomRecords zooms a module out (installing a zoom node
// and hiding intermediates), round-trips through both versions, and checks
// the restored graph still supports ZoomIn-style liveness.
func TestRoundTripWithZoomRecords(t *testing.T) {
	for _, v := range roundTripWriters {
		t.Run(v.name, func(t *testing.T) {
			snap := buildSampleSnapshot()
			ov := provgraph.NewOverlay(snap.Graph)
			rec := ov.ZoomOut("M_test")
			if rec.HiddenCount() == 0 || len(rec.ZoomNodes()) == 0 {
				t.Fatal("zoom hid nothing")
			}
			snap.Graph = ov.Materialize()
			var buf bytes.Buffer
			if err := v.write(&buf, snap); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !snap.Graph.StructurallyEqual(got.Graph) {
				t.Error("zoomed graph round-trip mismatch")
			}
			if got.Graph.NumNodes() != snap.Graph.NumNodes() {
				t.Error("live node count changed")
			}
			// The zoom nodes survive the trip alive.
			zooms := 0
			got.Graph.Nodes(func(n provgraph.Node) bool {
				if n.Type == provgraph.TypeZoom {
					zooms++
				}
				return true
			})
			if zooms != len(rec.ZoomNodes()) {
				t.Errorf("zoom nodes after round trip = %d, want %d", zooms, len(rec.ZoomNodes()))
			}
		})
	}
}

// TestIndexRoundTrip verifies the persisted postings equal a fresh build
// over the loaded graph (i.e. the index section carries no drift).
func TestIndexRoundTrip(t *testing.T) {
	snap := buildSampleSnapshot()
	var buf bytes.Buffer
	if err := WriteV2(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index == nil {
		t.Fatal("indexed snapshot loaded without an index")
	}
	if !reflect.DeepEqual(got.Index, BuildIndex(got.Graph)) {
		t.Error("persisted index differs from a rebuild over the loaded graph")
	}
	if got.Index.Nodes != got.Graph.TotalNodes() {
		t.Errorf("index covers %d slots, graph has %d", got.Index.Nodes, got.Graph.TotalNodes())
	}
}

// TestV1ReadCompat: legacy snapshots load with no index and identical
// structure.
func TestV1ReadCompat(t *testing.T) {
	snap := buildSampleSnapshot()
	var buf bytes.Buffer
	if err := WriteV1(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != nil {
		t.Error("v1 snapshot produced an index section")
	}
	if !snap.Graph.StructurallyEqual(got.Graph) {
		t.Error("v1 round-trip mismatch")
	}
}

// TestCorruptPostingsRejected: a v2 file whose postings lists are out of
// order (ids in range, so the bounds checks pass) must fail the load —
// the query layer's intersections rely on sortedness.
func TestCorruptPostingsRejected(t *testing.T) {
	snap := buildSampleSnapshot()
	idx := BuildIndex(snap.Graph)
	var list []provgraph.NodeID
	for _, ids := range idx.ByType {
		if len(ids) >= 2 {
			list = ids
			break
		}
	}
	if list == nil {
		t.Fatal("no postings list with >= 2 ids in the sample")
	}
	// Re-encode the index section with one list reversed and splice it
	// onto the valid graph payload.
	var good bytes.Buffer
	if err := WriteV2(&good, snap); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := WriteV1(&v1, snap); err != nil {
		t.Fatal(err)
	}
	list[0], list[len(list)-1] = list[len(list)-1], list[0]
	var badIdx bytes.Buffer
	w := newWriter(&badIdx)
	writeIndex(w, idx)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good.Bytes()[:v1.Len()]...)
	bad[4] = 2 // keep the indexed version byte
	bad = append(bad, badIdx.Bytes()...)
	_, err := Read(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("out-of-order postings accepted: %v", err)
	}
}

// TestNewerVersionRejected: a snapshot from a future lipstick yields the
// actionable "newer" error rather than a generic magic failure.
func TestNewerVersionRejected(t *testing.T) {
	snap := buildSampleSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 9 // future format version
	_, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "newer lipstick") {
		t.Errorf("want 'newer lipstick' error, got: %v", err)
	}
	data[4] = 0 // below any released version
	if _, err := Read(bytes.NewReader(data)); err == nil || strings.Contains(err.Error(), "newer") {
		t.Errorf("version 0 should fail as invalid, got: %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	snap := buildSampleSnapshot()
	path := filepath.Join(t.TempDir(), "prov.lpsk")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Graph.StructurallyEqual(got.Graph) {
		t.Error("file round-trip mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading missing file should fail")
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	snap := buildSampleSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at every prefix must error, not panic.
	for n := 0; n < len(data)-1; n += 7 {
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	snap := buildSampleSnapshot()
	var buf bytes.Buffer
	if err := ExportJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Graph.StructurallyEqual(got.Graph) {
		t.Error("JSON graph round-trip mismatch")
	}
	if len(got.Outputs) != 1 || got.Outputs[0].Tuples[0].Mult != 2 {
		t.Errorf("JSON outputs = %+v", got.Outputs)
	}
	if !got.Outputs[0].Tuples[0].Tuple.Equal(snap.Outputs[0].Tuples[0].Tuple) {
		t.Error("JSON tuple mismatch")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	if _, err := ImportJSON(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ImportJSON(bytes.NewReader([]byte(`{"nodes":[{"class":"q","type":"I"}]}`))); err == nil {
		t.Error("unknown class accepted")
	}
}

// valueBox generates random nested values for the codec property test.
type valueBox struct{ v nested.Value }

func genValue(r *rand.Rand, depth int) nested.Value {
	k := r.Intn(7)
	if depth <= 0 && k >= 5 {
		k = r.Intn(5)
	}
	switch k {
	case 0:
		return nested.Null()
	case 1:
		return nested.Bool(r.Intn(2) == 0)
	case 2:
		return nested.Int(int64(r.Uint64()))
	case 3:
		return nested.Float(r.NormFloat64())
	case 4:
		return nested.Str(randString(r))
	case 5:
		return nested.TupleVal(genTuple(r, depth-1))
	default:
		bag := nested.NewBag()
		for i, n := 0, r.Intn(3); i < n; i++ {
			bag.Add(genTuple(r, depth-1))
		}
		return nested.BagVal(bag)
	}
}

func genTuple(r *rand.Rand, depth int) *nested.Tuple {
	fields := make([]nested.Value, r.Intn(4))
	for i := range fields {
		fields[i] = genValue(r, depth)
	}
	return nested.NewTuple(fields...)
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

func (valueBox) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueBox{genValue(r, 3)})
}

// TestValueCodecRoundTrip: every value encodes and decodes to an equal
// value (binary codec).
func TestValueCodecRoundTrip(t *testing.T) {
	f := func(vb valueBox) bool {
		var buf bytes.Buffer
		w := newWriter(&buf)
		w.value(vb.v)
		if err := w.flush(); err != nil {
			return false
		}
		r := newReader(&buf)
		got, err := r.value()
		if err != nil {
			return false
		}
		return got.Equal(vb.v) || (got.IsNull() && vb.v.IsNull())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestValueJSONCodecRoundTrip: same property for the JSON value codec.
func TestValueJSONCodecRoundTrip(t *testing.T) {
	f := func(vb valueBox) bool {
		jv := toJSONValue(vb.v)
		got, err := fromJSONValue(jv)
		if err != nil {
			return false
		}
		return got.Equal(vb.v) || (got.IsNull() && vb.v.IsNull())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
