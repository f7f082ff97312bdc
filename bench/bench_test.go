package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lipstick/internal/testutil"
)

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSpecMatchesProgram holds BENCHMARK.json to what the program defines.
func TestSpecMatchesProgram(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Fatalf("BENCHMARK.json differs from `bench -print-spec`; regenerate it")
	}
	sawSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

// TestSmoke runs every workload untraced and traced at smoke scale and
// checks the emitted names against BENCHMARK.json, the values, and the
// trace file.
func TestSmoke(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 4 {
		t.Fatalf("%d workloads, want 4", len(spec.Workloads))
	}
	for _, wd := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			c := &config{
				workload: wd.Name, seed: 1, seconds: 0.5, trace: traced, scale: scales["smoke"],
				workDir: filepath.Join(t.TempDir(), "work"), outDir: t.TempDir(),
			}
			rec, err := runOne(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wd.Name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", wd.Name, traced, rec.Attempted, rec.Failed, rec.Failures)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", wd.Name, traced, len(rec.Metrics), len(want))
			}
			for name, m := range rec.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s: metric %s [%s] is not in BENCHMARK.json with that unit", wd.Name, name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", wd.Name, name, m.Value)
				}
				// Differences of two timings (overhead, self times) may dip
				// below zero by noise; everything else is a count or a time.
				signed := name == "trace.overhead_share" || strings.HasSuffix(name, "_self_us") || name == "store.checkpoint_stall_ms"
				if m.Value < 0 && !signed || !traced && m.Value <= 0 {
					t.Errorf("%s: metric %s = %v", wd.Name, name, m.Value)
				}
			}
			for name := range rec.Detail {
				if _, ok := detailBetter[name]; !ok {
					t.Errorf("%s: detail metric %s has no direction in spec.go", wd.Name, name)
				}
			}
			if traced {
				checkTrace(t, filepath.Join(c.outDir, "trace-"+wd.Name+".json"))
			}
		}
	}
}

// checkTrace parses a trace file and checks every span's parent is a
// recorded span of the same operation.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range doc.Spans {
		if int(s.Span) != i || s.EndNs < s.StartNs {
			t.Errorf("%s: span %d is malformed: %+v", path, i, s)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || int(s.Parent) >= len(doc.Spans) || doc.Spans[s.Parent].Op != s.Op {
			t.Errorf("%s: span %d's parent %d is missing or of another operation", path, i, s.Parent)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestZipfRanksFollowTheDistribution(t *testing.T) {
	ranks := zipfRanks(100, 1000)
	counts := make([]int, 100)
	for _, r := range ranks {
		counts[r]++
	}
	// Rank 0 carries 1/H(100, 1.1) of the mass, about 23%.
	if counts[0] < 210 || counts[0] > 250 || counts[0] <= counts[1] || counts[99] > 3 {
		t.Errorf("rank counts %v", counts[:5])
	}
}

// TestCompare checks the verdicts of the compare tool: a regression
// beyond the bound fails, and a pair noisier than its bound is
// unresolved rather than unchanged.
func TestCompare(t *testing.T) {
	write := func(name string, opsS, p50 []float64) string {
		var file resultFile
		for i := range opsS {
			file.Runs = append(file.Runs, runRecord{
				Workload: "query-snapshot", Seed: int64(i + 1), Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"ops_s": {opsS[i], "1/s"}, "p50_us": {p50[i], "us"}},
			})
		}
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102}
	base := write("a.json", steady, steady)
	same := write("b.json", []float64{101, 100, 99, 101, 100}, steady)
	slower := write("c.json", []float64{60, 61, 59, 60, 62}, steady)
	noisy := write("d.json", []float64{60, 100, 140, 80, 120}, steady)

	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("same against same: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, slower); err == nil || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 40%% throughput loss passed:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a noisy pair was not unresolved (err %v):\n%s", err, out.String())
	}
}
