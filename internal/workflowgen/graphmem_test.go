package workflowgen

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestGraphMemSeriesSmoke runs one small scale point and checks the
// tentpole's storage contracts: the columnar in-memory layout stays under
// half the old pointer layout's ~220 bytes/node, and the v3 open beats
// the v2 decode of the same graph.
func TestGraphMemSeriesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("storage benchmark is slow in -short mode")
	}
	report, err := GraphMemSeries([]int{20_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 1 {
		t.Fatalf("points = %d", len(report.Points))
	}
	p := report.Points[0]
	if p.TotalNodes < 20_000 || p.Edges == 0 {
		t.Fatalf("degenerate graph: %+v", p)
	}
	if p.FileV2Bytes == 0 || p.FileV3Bytes == 0 {
		t.Fatalf("missing file sizes: %+v", p)
	}
	if p.BytesPerNode <= 0 || p.BytesPerNode > 110 {
		t.Errorf("bytes/node = %.1f, want (0, 110] (old pointer layout was ~220)", p.BytesPerNode)
	}
	if p.OpenV3Ns >= p.OpenV2Ns {
		t.Errorf("v3 open (%d ns) not faster than v2 decode (%d ns)", p.OpenV3Ns, p.OpenV2Ns)
	}
	if p.FindNs == 0 || p.LineageNs == 0 || p.BFSNsPerVisit == 0 {
		t.Errorf("missing query timings: %+v", p)
	}
}

// TestGraphMemReportRoundTrip: the JSON the CLI writes reads back intact.
func TestGraphMemReportRoundTrip(t *testing.T) {
	r := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 100, TotalNodes: 104, Edges: 300, FileV2Bytes: 10, FileV3Bytes: 8,
		BytesPerNode: 55.5, OpenV2Ns: 1000, OpenV3Ns: 100,
		FindNs: 5, LineageNs: 7, BFSNsPerVisit: 1.5, MappedOpen: true,
	}}}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got GraphMemReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 1 || got.Points[0] != r.Points[0] {
		t.Fatalf("round trip changed the report: %+v", got.Points)
	}
}

// TestCompareGraphMem covers the CI gate's regression arithmetic.
func TestCompareGraphMem(t *testing.T) {
	base := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 1000, BytesPerNode: 50, OpenV2Ns: 1000, OpenV3Ns: 100,
	}}}
	ok := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 1000, BytesPerNode: 55, OpenV2Ns: 1000, OpenV3Ns: 110,
	}}}
	if err := CompareGraphMem(base, ok, 0.20); err != nil {
		t.Errorf("within-tolerance report rejected: %v", err)
	}
	fatMem := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 1000, BytesPerNode: 61, OpenV2Ns: 1000, OpenV3Ns: 100,
	}}}
	if err := CompareGraphMem(base, fatMem, 0.20); err == nil {
		t.Error("bytes/node regression accepted")
	}
	slowOpen := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 1000, BytesPerNode: 50, OpenV2Ns: 1000, OpenV3Ns: 130,
	}}}
	if err := CompareGraphMem(base, slowOpen, 0.20); err == nil {
		t.Error("open-ratio regression accepted")
	}
	// A failed open-ratio check names both sides of the ratio, for the
	// baseline and the run, so the message says which open moved.
	mapped := &GraphMemReport{Points: []GraphMemPoint{{Nodes: 1000, OpenV2Ns: 48e6, OpenV3Ns: 24e3}}}
	slowMapped := &GraphMemReport{Points: []GraphMemPoint{{Nodes: 1000, OpenV2Ns: 40e6, OpenV3Ns: 96e3}}}
	err := CompareGraphMem(mapped, slowMapped, 0.20)
	for _, want := range []string{"96.0 µs", "40.00 ms", "24.0 µs", "48.00 ms"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("open-ratio error %v does not report %q", err, want)
		}
	}
	disjoint := &GraphMemReport{Points: []GraphMemPoint{{Nodes: 9}}}
	if err := CompareGraphMem(base, disjoint, 0.20); err == nil {
		t.Error("disjoint scale points accepted")
	}
}
