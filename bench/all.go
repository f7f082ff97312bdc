package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultFile is what `-workload all` writes and `-compare` reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

// environment is recorded in every result file, so sandbox numbers are
// never read as device numbers.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Scale        string  `json:"scale"`
	Seconds      float64 `json:"seconds"`
	FsyncProbeUS float64 `json:"env.fsync_probe_us"`
	FlushPolicy  string  `json:"flush_policy"`
}

func currentEnvironment(scaleName string, seconds float64, workDir string) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitID(), Scale: scaleName, Seconds: seconds,
		FsyncProbeUS: fsyncProbeUS(workDir),
		FlushPolicy:  "lipstick serve default: group commit (200us gather, 4 MiB cap), fsync on",
	}
}

// runAll runs every workload `runs` times untraced (seeds seed, seed+1,
// ...) and once traced, each run in a subprocess of its own so that
// peak_rss_mb and the garbage collector's state are per run.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	probeDir := filepath.Join(".bench_build", "work", fmt.Sprintf("probe-%d", os.Getpid()))
	file := resultFile{Env: currentEnvironment(o.scale, o.seconds, probeDir)}
	for _, wd := range workloadDefs {
		for k := 0; k <= o.runs; k++ {
			traced := k == o.runs
			seed := o.seed + int64(k)
			if traced {
				seed = o.seed
			}
			rec, err := runChild(self, wd.Name, seed, o.seconds, o.scale, traced)
			if err != nil {
				return err
			}
			if err := printRecord(rec); err != nil {
				return err
			}
			// Saved after every run: a late failure keeps the earlier runs.
			file.Runs = append(file.Runs, *rec)
			data, err := json.MarshalIndent(file, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.out, data, 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Printf("wrote %s\n", o.out)
	return nil
}

// runChild runs one workload in a subprocess and parses the record it
// leaves in bench/out.
func runChild(self, workload string, seed int64, seconds float64, scaleName string, traced bool) (*runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	recordPath := filepath.Join("bench", "out", fmt.Sprintf("run-%s-%d-%s.json", workload, seed, trace))
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-scale", scaleName, "-trace", trace, "-record", recordPath)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %s: %w", workload, seed, trace, err)
	}
	data, err := os.ReadFile(recordPath)
	if err != nil {
		return nil, err
	}
	var rec runRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", recordPath, err)
	}
	return &rec, os.Remove(recordPath)
}

// commitID is the checkout's commit when it is a git repository.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsyncProbeUS is the median time of a 4 KiB write + fsync in the
// scratch directory: the sandbox's disk, not a device's.
func fsyncProbeUS(dir string) float64 {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	block := bytes.Repeat([]byte{0xA5}, 4096)
	var us []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := w.Write(block); err != nil {
			return 0
		}
		if err := w.Flush(); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, micros(time.Since(t0)))
	}
	return median(us)
}
