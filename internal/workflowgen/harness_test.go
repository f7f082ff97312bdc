package workflowgen

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lipstick/internal/provgraph"
	"lipstick/internal/workflow"
)

// tinyScale keeps harness tests fast.
var tinyScale = Scale{
	NumCars:            240,
	DealerExecs:        []int{2, 4},
	ArcticExecs:        []int{2},
	ArcticStations:     4,
	ArcticHistoryYears: 2,
	GraphExecs:         2,
	SubgraphNodes:      10,
	Reducers:           []int{1, 2, 3, 4, 10, 54},
	Trials:             1,
	Seed:               1,
}

// tinyClock times each point once.
var tinyClock = MeanOf(1)

func TestRunFigureUnknown(t *testing.T) {
	if _, err := RunFigure("nope", tinyScale, tinyClock); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestAllFiguresRunAtTinyScale(t *testing.T) {
	for _, id := range FigureIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			fig, err := RunFigure(id, tinyScale, tinyClock)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(fig.Points) == 0 {
				t.Fatalf("%s: no points", id)
			}
			var buf bytes.Buffer
			fig.Print(&buf)
			if !strings.Contains(buf.String(), fig.ID) {
				t.Errorf("%s: print output lacks figure id", id)
			}
		})
	}
}

// figurePoints pins each figure's series and the x values (or x labels)
// of each series, in order, at tinyScale: a harness change must keep
// every figure's points. Series order is not pinned (fig5c's was map
// order).
var figurePoints = map[string]map[string]string{
	"fig5a": {
		"provenance":    "2, 4",
		"no provenance": "2, 4",
	},
	"fig5b": {
		"parallel (prov)":    "2",
		"parallel (no prov)": "2",
		"dense (prov)":       "2",
		"dense (no prov)":    "2",
		"serial (prov)":      "2",
		"serial (no prov)":   "2",
	},
	"fig5c": {
		"no provenance": "1, 2, 3, 4, 10, 54",
		"provenance":    "1, 2, 3, 4, 10, 54",
	},
	"fig6a": {
		"build": "574, 976",
	},
	"fig6b": {
		"2 modules": "all, season, month, year",
	},
	"fig6c": {
		"serial":            "all, season, month, year",
		"parallel":          "all, season, month, year",
		"dense (fan-out 2)": "all, season, month, year",
		"dense (fan-out 3)": "all, season, month, year",
	},
	"fig7a": {
		"dealer zoom-out":    "574, 976",
		"dealer zoom-in":     "574, 976",
		"aggregate zoom-out": "574, 976",
		"aggregate zoom-in":  "574, 976",
	},
	"fig7b": {
		"subgraph": "102, 169, 211, 220, 265, 280, 323, 392, 392, 606",
	},
	"fig7c": {
		"serial":            "all, season, month, year",
		"parallel":          "all, season, month, year",
		"dense (fan-out 2)": "all, season, month, year",
		"dense (fan-out 3)": "all, season, month, year",
	},
	"delete": {
		"delete": "29, 37, 39, 43, 47, 48, 63, 67, 71, 82",
	},
	"finegrained": {
		"fine":   "state tuples, bid avg state deps, bid state share %, bid avg input deps, best avg state deps, sale avg input deps",
		"coarse": "workflow inputs, best avg input deps",
	},
	"nodes": {
		"dealerships nodes": "2, 4",
		"dealerships edges": "2, 4",
	},
	"graphmem": {
		"v3 mapped open (s)": "20000",
		"bytes/node":         "20000",
		"find (s)":           "20000",
		"lineage (s)":        "20000",
		"bfs ns/visit":       "20000",
	},
}

func TestFigurePointSets(t *testing.T) {
	if len(figurePoints) != len(FigureIDs) {
		t.Errorf("%d figures pinned, %d known", len(figurePoints), len(FigureIDs))
	}
	for _, id := range FigureIDs {
		fig, err := RunFigure(id, tinyScale, tinyClock)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := map[string]string{}
		for _, series := range fig.Series() {
			var xs []string
			for _, p := range fig.SeriesPoints(series) {
				x := p.XLabel
				if x == "" {
					x = trimFloat(p.X)
				}
				xs = append(xs, x)
			}
			got[series] = strings.Join(xs, ", ")
		}
		if fig.ID != id || !reflect.DeepEqual(got, figurePoints[id]) {
			t.Errorf("%s: figure %q points\n got %q\nwant %q", id, fig.ID, got, figurePoints[id])
		}
	}
}

// TestFig5aShape: tracking costs more than not tracking. The figure's
// per-execution times are a few milliseconds at test scale and too close
// to order reliably, so the check is on deterministic work: the tracked
// run computes exactly the plain run's outputs and on top of that captures
// provenance in every execution — the cost Figure 5(a) plots.
func TestFig5aShape(t *testing.T) {
	fig, err := Fig5a(tinyScale, tinyClock)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"provenance", "no provenance"} {
		if pts := fig.SeriesPoints(series); len(pts) != len(tinyScale.DealerExecs) {
			t.Fatalf("%s: %d points, want %d", series, len(pts), len(tinyScale.DealerExecs))
		}
	}

	params := DealershipParams{NumCars: tinyScale.NumCars, NumExec: 4, Seed: 1, Gran: workflow.Plain}
	plain, err := RunDealership(params)
	if err != nil {
		t.Fatal(err)
	}
	params.Gran = workflow.Fine
	var perExec []int
	params.EventSink = func(provgraph.Event) { perExec[len(perExec)-1]++ }
	perExec = []int{0} // state seeding
	fine, err := NewDealershipRun(params)
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= params.NumExec; e++ {
		perExec = append(perExec, 0)
		fine.params.NumExec = e // ExecuteAll resumes: run one more execution
		if err := fine.ExecuteAll(); err != nil {
			t.Fatal(err)
		}
	}
	for e, n := range perExec[1:] {
		if n == 0 {
			t.Errorf("execution %d captured no provenance", e)
		}
	}
	for i, pe := range plain.Executions {
		for node, rels := range pe.Outputs {
			for rel, want := range rels {
				if got, ok := fine.Executions[i].Output(node, rel); !ok || !got.Equal(want) {
					t.Errorf("execution %d: tracked %s.%s differs from plain", i, node, rel)
				}
			}
		}
	}
}

// TestFig5cShape: the sweep peaks between 2 and 4 reducers and declines by
// 54, for both variants.
func TestFig5cShape(t *testing.T) {
	fig, err := Fig5c(tinyScale, tinyClock)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range fig.Series() {
		points := fig.SeriesPoints(series)
		best := points[0]
		var at54 *Point
		for i := range points {
			if points[i].Y > best.Y {
				best = points[i]
			}
			if points[i].X == 54 {
				at54 = &points[i]
			}
		}
		if best.X < 2 || best.X > 4 {
			t.Errorf("%s: peak at %v reducers, want 2-4", series, best.X)
		}
		if at54 == nil || at54.Y >= best.Y {
			t.Errorf("%s: no decline at 54 reducers", series)
		}
	}
}

// TestFig6aLinearity: build time grows with node count (monotone in this
// two-point check) and node counts grow with executions.
func TestFig6aShape(t *testing.T) {
	fig, err := Fig6a(tinyScale, tinyClock)
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.SeriesPoints("build")
	if len(pts) < 2 {
		t.Fatal("need at least two points")
	}
	if pts[0].X >= pts[1].X {
		t.Errorf("node counts should grow with executions: %v", pts)
	}
}

// TestFig6bShape: lower selectivity means slower builds for the largest
// module count. Build time is linear in graph size (TestFig6aShape) and
// the sub-millisecond timings at test scale are too noisy to order, so the
// check orders the deterministic work: the graph each selectivity builds.
func TestFig6bShape(t *testing.T) {
	fig, err := Fig6b(tinyScale, tinyClock)
	if err != nil {
		t.Fatal(err)
	}
	series := fig.Series()
	if len(series) == 0 {
		t.Fatal("no series")
	}
	if pts := fig.SeriesPoints(series[len(series)-1]); len(pts) != len(Selectivities) {
		t.Fatalf("%d points, want one per selectivity", len(pts))
	}
	var size int
	if _, err := fmt.Sscanf(series[len(series)-1], "%d modules", &size); err != nil {
		t.Fatal(err)
	}
	nodes := map[Selectivity]int{}
	for _, sel := range []Selectivity{SelAll, SelYear} {
		run, err := arcticGraph(tinyScale, arcticConfig{stations: size, topo: Dense, fanOut: 2}, sel)
		if err != nil {
			t.Fatal(err)
		}
		nodes[sel] = run.Runner.Graph().NumNodes()
	}
	if nodes[SelAll] <= nodes[SelYear] {
		t.Errorf("all-selectivity graph (%d nodes) should be larger than year (%d)", nodes[SelAll], nodes[SelYear])
	}
}

// TestFigNodesLinear: graph size grows approximately linearly in
// executions.
func TestFigNodesLinear(t *testing.T) {
	fig, err := FigNodes(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.SeriesPoints("dealerships nodes")
	if len(pts) < 2 {
		t.Fatal("need two points")
	}
	// nodes(4 exec) should be roughly 2x nodes(2 exec), within 3x slack
	// for fixed setup costs.
	ratio := pts[1].Y / pts[0].Y
	execRatio := pts[1].X / pts[0].X
	if ratio > execRatio*3 {
		t.Errorf("super-linear growth: %v nodes ratio for %v exec ratio", ratio, execRatio)
	}
}

// TestFigFineGrainedContrast: coarse outputs depend on all inputs.
func TestFigFineGrainedContrast(t *testing.T) {
	fig, err := FigFineGrained(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var share, coarseInputs, totalInputs float64
	for _, p := range fig.Points {
		switch {
		case p.Series == "fine" && p.XLabel == "bid state share %":
			share = p.Y
		case p.Series == "coarse" && p.XLabel == "best avg input deps":
			coarseInputs = p.Y
		case p.Series == "coarse" && p.XLabel == "workflow inputs":
			totalInputs = p.Y
		}
	}
	if share <= 0 || share > 10 {
		t.Errorf("fine state share = %.2f%%, want small and positive", share)
	}
	// Coarse: the winning bid of execution i depends on all inputs up to i
	// (state chaining makes later outputs depend on earlier inputs too);
	// with 3 executions and 2 inputs each, the average is ≥ 2.
	if coarseInputs < 2 {
		t.Errorf("coarse input deps = %.1f, want >= 2 (of %v total)", coarseInputs, totalInputs)
	}
}
