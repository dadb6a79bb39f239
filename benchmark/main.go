// Command benchmark is the repo's performance instrument: five named
// workloads, end-to-end metrics measured around one matrix.Run with the
// benchmark's own spans off, and a separate traced run that times each
// layer's public functions from outside. BENCHMARK.json at the repo root
// names the same workloads, metrics and bounds; README.md in this directory
// says why each was chosen and how to read them.
//
//	go run ./benchmark --workload adsl-spin --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -runs 3 -o benchmark/out/a.json   # every workload, round-robin
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -list
//	go run ./benchmark -update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// outDir is where a run keeps what it writes (trace files, suite results,
// the persistence layer's scratch files), relative to the repo root the
// program is run from. benchmark/.gitignore ignores it.
var outDir = filepath.Join("benchmark", "out")

// metricValue and runResult are the last line a single run prints: the
// driver's contract.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// traceFile is what a traced run writes out when it ends: the per-layer
// values the workload's layers produced (absent, not zero, where a layer
// does nothing) and the in-memory spans.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Values   map[string]float64 `json:"values"`
	Spans    []span             `json:"spans"`
}

func tracePath(workload string) string {
	return filepath.Join(outDir, workload+".trace.json")
}

// runOne is one run of one workload under the driver's contract: print
// every metric by name with its unit, then the contract line.
func runOne(w workload, seed int64, seconds float64, traced bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	defs := endToEnd
	var out runOutcome
	var err error
	if traced {
		defs = perLayer
		var spans []span
		if out, spans, err = traceRun(w, seed, 1, outDir); err != nil {
			return err
		}
		if err := writeJSON(tracePath(w.name), traceFile{Workload: w.name, Seed: seed, Values: out.values, Spans: spans}); err != nil {
			return err
		}
	} else if out, err = measure(w, seed, seconds, 1); err != nil {
		return err
	}
	for _, f := range out.failures {
		fmt.Println("FAILED", f)
	}
	res := runResult{
		Correct: len(out.failures) == 0, Attempted: out.attempted, Failed: len(out.failures),
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		val, ok := out.values[d.name]
		if ok {
			fmt.Printf("%-32s %14.6g %s\n", d.name, val, d.unit)
		} else {
			fmt.Printf("%-32s %14s %s\n", d.name, "n/a", d.unit)
		}
		res.Metrics[d.name] = metricValue{Value: val, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// list prints the workload and metric names BENCHMARK.json must carry.
func list(out io.Writer) {
	fmt.Fprintln(out, "workloads:")
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-16s %2d cells  %s\n", w.name, len(w.spec(1).Cells()), w.why)
	}
	for _, g := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end metrics (--trace 0):", endToEnd}, {"per-layer metrics (--trace 1):", perLayer}} {
		fmt.Fprintln(out, g.title)
		for _, d := range g.defs {
			bound := ""
			if d.bound > 0 {
				bound = fmt.Sprintf("  bound %.0f%%", d.bound*100)
			}
			fmt.Fprintf(out, "  %-32s %-10s %s is better%s\n", d.name, d.unit, d.better(), bound)
		}
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func main() {
	// Never more threads of load than the two cores of the reference box:
	// simulated sweeps run one cell at a time, native cells two ranks.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	var (
		name       = flag.String("workload", "", "run this one workload and print the contract line (the driver's mode)")
		seed       = flag.Int64("seed", defaultSeed, "input seed: matrix generator and network-jitter stream")
		seconds    = flag.Float64("seconds", 12, "how long one run measures")
		traced     = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics from the traced run")
		runs       = flag.Int("runs", 3, "without -workload: rounds over all workloads, each run in a fresh child process")
		outPath    = flag.String("o", filepath.Join(outDir, "latest.json"), "without -workload: where the suite's results go")
		doList     = flag.Bool("list", false, "print workload and metric names and exit")
		doCompare  = flag.Bool("compare", false, "compare two suite result files: -compare a.json b.json")
		doUpdGold  = flag.Bool("update-golden", false, "regenerate benchmark/golden.json from the program under test")
		exitStatus = 0
	)
	flag.Parse()
	var err error
	switch {
	case *doList:
		list(os.Stdout)
	case *doCompare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two suite result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); regressed {
			exitStatus = 1
		}
	case *doUpdGold:
		err = updateGolden("benchmark")
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q (known: %v)", *name, workloadNames())
			break
		}
		if *traced != 0 && *traced != 1 {
			err = fmt.Errorf("-trace wants 0 or 1, got %d", *traced)
			break
		}
		err = runOne(w, *seed, *seconds, *traced == 1)
	default:
		err = runSuite(*runs, *seed, *seconds, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(exitStatus)
}
