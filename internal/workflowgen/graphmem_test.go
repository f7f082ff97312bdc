package workflowgen

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestGraphMemSeriesSmoke runs one small scale point and checks the
// storage contract: the columnar in-memory layout stays under half the old
// pointer layout's ~220 bytes/node. (The open's cost is guarded by
// store's TestLoadMappedAllocsDoNotScale, which counts allocations
// instead of timing.)
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
	if p.FileV3Bytes == 0 {
		t.Fatalf("missing file size: %+v", p)
	}
	if p.BytesPerNode <= 0 || p.BytesPerNode > 110 {
		t.Errorf("bytes/node = %.1f, want (0, 110] (old pointer layout was ~220)", p.BytesPerNode)
	}
	if p.FindNs == 0 || p.LineageNs == 0 || p.BFSNsPerVisit == 0 {
		t.Errorf("missing query timings: %+v", p)
	}
}

// TestGraphMemReportRoundTrip: the JSON the CLI writes reads back intact.
func TestGraphMemReportRoundTrip(t *testing.T) {
	r := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 100, TotalNodes: 104, Edges: 300, FileV3Bytes: 8,
		BytesPerNode: 55.5, OpenV3Ns: 100,
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

// TestCompareGraphMem covers the CI gate's regression arithmetic: only
// bytes/node is gated, so a slower open passes.
func TestCompareGraphMem(t *testing.T) {
	base := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 1000, BytesPerNode: 50, OpenV3Ns: 100,
	}}}
	ok := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 1000, BytesPerNode: 55, OpenV3Ns: 300,
	}}}
	if err := CompareGraphMem(base, ok, 0.20); err != nil {
		t.Errorf("within-tolerance report rejected: %v", err)
	}
	fatMem := &GraphMemReport{Points: []GraphMemPoint{{
		Nodes: 1000, BytesPerNode: 61, OpenV3Ns: 100,
	}}}
	if err := CompareGraphMem(base, fatMem, 0.20); err == nil {
		t.Error("bytes/node regression accepted")
	}
	disjoint := &GraphMemReport{Points: []GraphMemPoint{{Nodes: 9}}}
	if err := CompareGraphMem(base, disjoint, 0.20); err == nil {
		t.Error("disjoint scale points accepted")
	}
}
