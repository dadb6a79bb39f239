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
	"strconv"
	"strings"
	"time"
)

// The suite is the closed-loop, one-client harness: rounds over the five
// workloads (w1..w5, w1..w5, ...), every run in a fresh child process so no
// run inherits another's heap, page cache of assembled systems or GC
// pacing. A child is this same binary under the driver's contract; the
// parent only reads the contract line (and, for the traced run, the trace
// file the child wrote when it ended).

// stamp records where and on what a suite ran.
type stamp struct {
	CreatedAt  string  `json:"created_at"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	RunSeconds float64 `json:"run_seconds"`
}

// samples is one end-to-end metric of one workload over the suite's runs:
// each sample is one child's reported value. The sample count is below
// twenty, so no percentile is claimed: median, min and max.
type samples struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// workloadResult is one workload's part of a suite result file.
type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]samples `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Spans     []span             `json:"spans"`
}

type suiteResult struct {
	Stamp     stamp                     `json:"stamp"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild re-executes this binary for one run and parses its contract
// line, the last line of its standard output.
func runChild(workload string, seed int64, seconds float64, traced int) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("child %s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("child %s: last line is not the contract line: %w", workload, err)
	}
	for _, l := range lines[:len(lines)-1] {
		if bytes.HasPrefix(l, []byte("FAILED")) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", workload, l)
		}
	}
	return res, nil
}

// runSuite makes `runs` untraced rounds over every workload, round k at
// seed+k so the spread it reports covers the inputs the driver varies, then
// one traced run per workload at the base seed, and writes one JSON
// document.
func runSuite(runs int, seed int64, seconds float64, path string) error {
	if runs < 1 {
		return fmt.Errorf("-runs wants at least 1, got %d", runs)
	}
	res := suiteResult{
		Stamp: stamp{
			CreatedAt: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(), NumCPU: runtime.NumCPU(),
			Commit: gitCommit(), Seed: seed, Runs: runs, RunSeconds: seconds,
		},
		Workloads: map[string]workloadResult{},
	}
	for _, w := range workloads {
		res.Workloads[w.name] = workloadResult{EndToEnd: map[string]samples{}}
	}
	for k := 0; k < runs; k++ {
		for _, w := range workloads {
			r, err := runChild(w.name, seed+int64(k), seconds, 0)
			if err != nil {
				return err
			}
			wr := res.Workloads[w.name]
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.name]
				s.Unit = d.unit
				s.Samples = append(s.Samples, r.Metrics[d.name].Value)
				wr.EndToEnd[d.name] = s
			}
			res.Workloads[w.name] = wr
			fmt.Printf("round %d/%d  %-16s host_s %.4f  failed %d/%d\n",
				k+1, runs, w.name, r.Metrics["host_s"].Value, r.Failed, r.Attempted)
		}
	}
	for _, w := range workloads {
		r, err := runChild(w.name, seed, seconds, 1)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(tracePath(w.name))
		if err != nil {
			return fmt.Errorf("traced run of %s left no trace file: %w", w.name, err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			return fmt.Errorf("%s: %w", tracePath(w.name), err)
		}
		wr := res.Workloads[w.name]
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.PerLayer, wr.Spans = tf.Values, tf.Spans
		for name, s := range wr.EndToEnd {
			s.Median, s.N = median(s.Samples), len(s.Samples)
			s.Min, s.Max = minMax(s.Samples)
			wr.EndToEnd[name] = s
		}
		res.Workloads[w.name] = wr
		fmt.Printf("traced      %-16s overhead share %.4f  failed %d/%d\n",
			w.name, tf.Values["bench.trace_overhead_share"], r.Failed, r.Attempted)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeJSON(path, res); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
