package opm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lipstick/internal/provgraph"
)

// buildChain builds I -> M_a -> M_b with one tuple flowing through.
func buildChain() (*provgraph.Graph, provgraph.NodeID) {
	b := provgraph.NewBuilder()
	in := b.WorkflowInput("I0")
	invA := b.BeginInvocation("M_a", "a", 0)
	iA := b.ModuleInput(invA, in)
	oA := b.ModuleOutput(invA, iA)
	invB := b.BeginInvocation("M_b", "b", 0)
	iB := b.ModuleInput(invB, oA)
	oB := b.ModuleOutput(invB, iB)
	return b.G, oB
}

func TestExportShape(t *testing.T) {
	g, _ := buildChain()
	doc := Export(g)
	if len(doc.Processes) != 2 {
		t.Fatalf("processes = %d", len(doc.Processes))
	}
	// Artifacts: 1 workflow input + 2 module inputs + 2 module outputs.
	if len(doc.Artifacts) != 5 {
		t.Fatalf("artifacts = %d, want 5", len(doc.Artifacts))
	}
	kinds := map[string]int{}
	for _, e := range doc.Edges {
		kinds[e.Kind]++
	}
	if kinds["used"] != 2 || kinds["wasGeneratedBy"] != 2 || kinds["wasDerivedFrom"] != 2 {
		t.Errorf("edge kinds = %v", kinds)
	}
}

func TestExportSkipsFineInternals(t *testing.T) {
	b := provgraph.NewBuilder()
	in := b.WorkflowInput("I0")
	inv := b.BeginInvocation("M_x", "x", 0)
	i := b.ModuleInput(inv, in)
	p := b.Project(i) // fine-grained internal
	j := b.Join(p, p)
	b.ModuleOutput(inv, j)
	doc := Export(b.G)
	for _, a := range doc.Artifacts {
		if a.Role != "workflow-input" && a.Role != "module-input" && a.Role != "module-output" {
			t.Errorf("unexpected artifact role %q", a.Role)
		}
	}
	if len(doc.Artifacts) != 3 {
		t.Errorf("artifacts = %d, want 3 (internals must not export)", len(doc.Artifacts))
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	g, _ := buildChain()
	doc := Export(g)
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Document
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Artifacts) != len(doc.Artifacts) || len(back.Edges) != len(doc.Edges) {
		t.Error("JSON round-trip changed counts")
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := buildChain()
	doc := Export(g)
	var buf bytes.Buffer
	if err := doc.WriteDOT(&buf, "opm"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "shape=box", "shape=ellipse", "used", "wasGeneratedBy", "wasDerivedFrom", "M_a@0"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestExportAfterDeletion(t *testing.T) {
	g, out := buildChain()
	ov := provgraph.NewOverlay(g)
	ov.Delete(out) // removes only the final output artifact
	doc := Export(ov.Materialize())
	for _, e := range doc.Edges {
		if e.Kind == "wasGeneratedBy" && e.From == "a5" {
			t.Error("dead artifact exported")
		}
	}
}
