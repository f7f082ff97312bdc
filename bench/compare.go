package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every (metric, workload) pair two result
// files share, the relative difference of the medians against the
// metric's bound. A pair whose own run-to-run spread (interquartile
// distance over the median, on either side) exceeds the bound is
// "unresolved", not "unchanged". It returns an error when any pair
// regressed.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	type def struct {
		better string
		bound  float64
	}
	defs := map[string]def{}
	var order []string
	for _, m := range endToEnd {
		defs[m.Name] = def{m.Better, m.Bound}
		order = append(order, m.Name)
	}
	for _, name := range sortedKeys(detailBetter) {
		defs[name] = def{detailBetter[name], detailBound}
		order = append(order, name)
	}
	regressed, unresolved := 0, 0
	fmt.Fprintf(out, "%-18s %-24s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "diff", "bound", "spread", "verdict")
	for _, wd := range workloadDefs {
		for _, name := range order {
			va, vb := a[wd.Name][name], b[wd.Name][name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			d := defs[name]
			worse := 0.0 // share of A's median by which B is worse
			if ma != 0 {
				worse = (mb - ma) / ma
				if d.better == "higher" {
					worse = -worse
				}
			}
			spread := max(spreadShare(va), spreadShare(vb))
			verdict := "unchanged"
			switch {
			case spread > d.bound:
				verdict = "unresolved"
				unresolved++
			case worse > d.bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -d.bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-18s %-24s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				wd.Name, name, ma, mb, 100*(mb-ma)/ma, 100*d.bound, 100*spread, verdict)
		}
	}
	fmt.Fprintf(out, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed beyond their bound", regressed)
	}
	return nil
}

// readResults groups a result file's untraced values by workload and
// metric name, detail metrics included.
func readResults(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, run := range file.Runs {
		if run.Trace {
			continue
		}
		if !run.Correct {
			return nil, fmt.Errorf("%s: %s seed %d failed its correctness checks: %v", path, run.Workload, run.Seed, run.Failures)
		}
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
		for name, v := range run.Detail {
			out[run.Workload][name] = append(out[run.Workload][name], v)
		}
	}
	return out, nil
}
