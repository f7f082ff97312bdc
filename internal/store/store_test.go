package store

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
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

// roundTripFormats enumerates the format versions a snapshot must survive.
// Nothing writes v1 or v2 any more: their encodings are fixtures of
// mutilateSample, so encode ignores its argument for them and the tests
// below round-trip mutilateSample.
var roundTripFormats = []struct {
	name   string
	encode func(testing.TB, *Snapshot) []byte
}{
	{"v1-legacy", func(t testing.TB, _ *Snapshot) []byte { return readFixture(t, "sample.v1.lpsk") }},
	{"v2-indexed", func(t testing.TB, _ *Snapshot) []byte { return readFixture(t, "sample.v2.lpsk") }},
	{"v3-columnar", encodeV3},
}

// encodeV3 writes snap in the current format.
func encodeV3(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripWithDeadNodes reads a graph with nodes killed by deletion
// propagation back from every format version.
func TestRoundTripWithDeadNodes(t *testing.T) {
	for _, v := range roundTripFormats {
		t.Run(v.name, func(t *testing.T) {
			snap := mutilateSample(t)
			if len(snap.Graph.DeadNodes()) == 0 {
				t.Fatal("no dead nodes after deletion")
			}
			got, err := Read(bytes.NewReader(v.encode(t, snap)))
			if err != nil {
				t.Fatal(err)
			}
			if !snap.Graph.StructurallyEqual(got.Graph) {
				t.Error("graph with dead nodes round-trip mismatch")
			}
			if !reflect.DeepEqual(snap.Graph.DeadNodes(), got.Graph.DeadNodes()) {
				t.Error("dead node set changed")
			}
			if got.Postings == nil {
				t.Error("snapshot read without postings")
			}
		})
	}
}

// TestRoundTripWithZoomRecords reads a graph with a module zoomed out (a
// zoom node installed, intermediates hidden) back from every format
// version: the zoom nodes survive alive.
func TestRoundTripWithZoomRecords(t *testing.T) {
	countZooms := func(g *provgraph.Graph) int {
		zooms := 0
		g.Nodes(func(n provgraph.Node) bool {
			if n.Type == provgraph.TypeZoom {
				zooms++
			}
			return true
		})
		return zooms
	}
	for _, v := range roundTripFormats {
		t.Run(v.name, func(t *testing.T) {
			snap := mutilateSample(t)
			want := countZooms(snap.Graph)
			if want == 0 {
				t.Fatal("sample has no live zoom nodes")
			}
			got, err := Read(bytes.NewReader(v.encode(t, snap)))
			if err != nil {
				t.Fatal(err)
			}
			if !snap.Graph.StructurallyEqual(got.Graph) {
				t.Error("zoomed graph round-trip mismatch")
			}
			if got.Graph.NumNodes() != snap.Graph.NumNodes() {
				t.Error("live node count changed")
			}
			if zooms := countZooms(got.Graph); zooms != want {
				t.Errorf("zoom nodes after round trip = %d, want %d", zooms, want)
			}
		})
	}
}

// TestIndexRoundTrip: Read skips a v2 file's postings section and builds
// the postings from the decoded graph instead.
func TestIndexRoundTrip(t *testing.T) { assertLegacyPostings(t, "v2") }

// TestV1ReadCompat: a v1 file has no postings section; Read builds the
// postings from the decoded graph.
func TestV1ReadCompat(t *testing.T) { assertLegacyPostings(t, "v1") }

// assertLegacyPostings reads every fixture of a legacy format version and
// checks its postings against the reference build over its graph.
func assertLegacyPostings(t *testing.T, version string) {
	for _, name := range legacyFixtures[version] {
		got, err := Read(bytes.NewReader(readFixture(t, name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Postings == nil {
			t.Fatalf("%s loaded without postings", name)
		}
		samePostings(t, got.Graph, got.Postings, BuildIndex(got.Graph))
		if got.Postings.Coverage() != got.Graph.TotalNodes() {
			t.Errorf("%s: postings cover %d slots, graph has %d", name, got.Postings.Coverage(), got.Graph.TotalNodes())
		}
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

// lyingLegacyHeader is a 13-byte v2 file whose node count claims 100M
// nodes: 8.9 GB of provgraph.Node if the count sized the slice.
const lyingLegacyHeader = "LPSK\x02\x85\x85\x850\x000\x020"

// TestLyingCountsDoNotPreallocate: a count read from the input sizes no
// allocation up front, so a few bytes claiming a huge legacy graph, a
// tuple of 2^28 fields or a string of 2^28 bytes fail at the input's end
// having allocated kilobytes.
func TestLyingCountsDoNotPreallocate(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x01} // uvarint 1<<28, maxLen
	cases := []struct {
		name string
		read func() error
	}{
		{"legacy node count", func() error { _, err := Read(strings.NewReader(lyingLegacyHeader)); return err }},
		{"tuple arity", func() error { _, err := newReader(bytes.NewReader(huge)).tuple(); return err }},
		{"string length", func() error { _, err := newReader(bytes.NewReader(huge)).str(); return err }},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a truncated input decoded", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%s: allocated %d bytes for an input of a few bytes", tc.name, got)
		}
	}
}

// TestStringLengthsRoundTrip: strings on both sides of capHint, and
// far past it, decode to what was written, and one cut short by a byte
// fails.
func TestStringLengthsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 12289, 1<<16 + 7} {
		want := strings.Repeat("ab", n)[:n]
		var buf bytes.Buffer
		w := newWriter(&buf)
		w.str(want)
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		got, err := newReader(bytes.NewReader(buf.Bytes())).str()
		if err != nil || got != want {
			t.Fatalf("length %d: read %d bytes, %v", n, len(got), err)
		}
		if n > 0 {
			if _, err := newReader(bytes.NewReader(buf.Bytes()[:buf.Len()-1])).str(); err == nil {
				t.Fatalf("length %d: a string one byte short decoded", n)
			}
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
