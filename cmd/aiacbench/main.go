// Command aiacbench sweeps the paper's experiment matrix — environment ×
// mode × grid × problem × procs × size × scenario × backend — across a
// bounded pool of concurrent simulations, prints the comparison tables,
// and persists the results as JSON so later runs can be diffed against
// them.
//
// Every experiment is a sweep of matrix cells; the flags filter the axes:
//
//	aiacbench -workers 8                      # full env×mode×grid sweep, sparse linear problem
//	aiacbench -env pm2,mpi -grid adsl         # filter any axis
//	aiacbench -problem chem -procs 8,12       # non-linear problem, two procs counts
//	aiacbench -problem gmres,newton           # the block-GMRES and strip-Newton variants
//	aiacbench -scenario flaky-adsl -grid adsl # grid-dynamics scenario + degradation table
//	aiacbench -backend sim,chan,tcp           # add native wall-clock cells + calibration table
//	aiacbench -backend tcp -timeout 30s       # native cells only, tighter runaway guard
//	aiacbench -list -backend chan -problem chem  # print the enumerated cells, run nothing
//	aiacbench -reps 3 -seed 42                # median/min over three jittered repetitions
//	aiacbench -o BENCH_pr42.json              # choose the results file
//	aiacbench -resume BENCH_pr42.jsonl        # continue an interrupted/extended sweep
//	aiacbench -retries 2                      # re-run cells that end in an error
//	aiacbench -baseline BENCH_baseline.json   # print per-cell deltas vs a saved run
//	aiacbench -baseline B.json -faildelta 1   # exit non-zero on >1% time drift (CI)
//	aiacbench -trend .                        # per-cell time/speedup trajectories across all BENCH files
//
// The paper's own experiments are presets of the same sweep (matrix.Preset:
// axis filters plus the Table 1 parameters that have no flag); the axis
// flags apply on top, and the preset's parameters (Table 1) and thread
// policies (Table 4) are printed above the sweep:
//
//	aiacbench -paper table2                   # sparse linear comparison (Table 2)
//	aiacbench -paper table3                   # non-linear comparison on both grids (Table 3)
//	aiacbench -paper figure3                  # scalability on the local cluster (Figure 3)
//	aiacbench -paper table2 -n 2000000 -procs 15  # Table 2 at the paper's size (hours)
//
// Every sweep with a results file streams each completed cell to a JSONL
// sidecar next to it (BENCH_pr42.json → BENCH_pr42.jsonl), fsync'd per
// row, so killing the sweep loses nothing already measured. -resume reads
// such a sidecar back and re-executes only the cells whose content address
// — cell key, problem parameters, seeds, repetition count, report schema,
// protocol constants, native timeout — has no valid row yet; new results
// append to the same sidecar, and the final JSON is written as usual,
// indistinguishable from an uninterrupted run.
//
// Native cells (backend chan or tcp) run the solve for real — goroutine
// ranks over an in-process or TCP-loopback transport shaped like the
// cell's grid (internal/backend) — serially after the simulated pool, so
// their wall-clock numbers are taken on a quiet host. Every problem runs
// natively, and the network scenarios with a steady-state transport
// analogue (flaky-adsl, lossy-wan) are legal native cells. Wall times vary
// run to run, so build -faildelta regression baselines from sim-only
// sweeps.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"aiac/internal/matrix"
	"aiac/internal/obs"
	"aiac/internal/problems"
	"aiac/internal/report"
)

func main() {
	var (
		envF      = flag.String("env", "", "environment filter (csv of mpi, pm2, madmpi, omniorb; empty = all)")
		modeF     = flag.String("mode", "", "mode filter (csv of sync, async; empty = both)")
		gridF     = flag.String("grid", "", "grid filter (csv of 3site, adsl, local, multiproto; empty = the paper's three measurement grids)")
		problemF  = flag.String("problem", "", "problem filter (csv of linear, gmres, newton, chem; empty = linear)")
		procsF    = flag.String("procs", "", "processor counts (csv; empty = 8)")
		sizesF    = flag.String("n", "", "problem sizes (csv; empty = per-problem default)")
		scenarioF = flag.String("scenario", "", "grid-dynamics scenario filter (csv of "+strings.Join(matrix.ScenarioNames, ", ")+"; empty = static)")
		backendF  = flag.String("backend", "", "execution-backend filter (csv of sim, sim-fast, chan, tcp; empty = sim, the discrete-event simulator; sim-fast is an accepted synonym; native backends run wall-clock cells serially after the simulated pool)")
		operatorF = flag.String("operator", "", "matrix operator for linear/gmres cells: dia (materialized bands; default) or stencil (implicit, O(bands) matrix memory)")
		timeout   = flag.Duration("timeout", matrix.DefaultNativeTimeout, "wall-clock guard per native cell: a longer-running cell is cancelled and reported as STALL")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "cells simulated concurrently")
		reps      = flag.Int("reps", 1, "repetitions per cell (median/min aggregation)")
		seed      = flag.Int64("seed", 0, "network-jitter seed: repetition r draws from stream seed+r (0 = jitter off, reps are bit-identical)")
		list      = flag.Bool("list", false, "print the enumerated matrix cells and exit without running them")
		outFile   = flag.String("o", "BENCH_latest.json", "results file to write (empty = don't persist); each completed cell also streams to the .jsonl sidecar next to it")
		resume    = flag.String("resume", "", "JSONL sidecar of an earlier sweep: reuse every cell whose content address already has a valid row, append new results to the same file")
		retries   = flag.Int("retries", 0, "re-run a cell whose attempt ended in an error up to this many extra times (the attempt count is recorded)")
		baseline  = flag.String("baseline", "", "saved results file to diff this run against")
		trendF    = flag.String("trend", "", "directory of BENCH_*.json/.jsonl files: print per-cell time and speedup trajectories across them instead of sweeping")
		failDelta = flag.Float64("faildelta", 0, "with -baseline: exit non-zero if any shared cell's time drifts more than this many percent, or outcomes change (0 = report only)")
		httpAddr  = flag.String("http", "", "serve live sweep observability on this address (e.g. :8080 or 127.0.0.1:0): /progress (state+ETA JSON), /metrics (Prometheus), /debug/pprof")
		paper     = flag.String("paper", "", "start from one of the paper's experiments instead of the default sweep: "+strings.Join(matrix.PresetNames, ", ")+" (the axis flags apply on top)")
	)
	flag.Parse()

	if *trendF != "" {
		// -trend only reads saved results files: reject the sweep flags
		// instead of silently ignoring them.
		sweepFlags := map[string]bool{"env": true, "mode": true, "grid": true, "problem": true, "procs": true, "n": true, "scenario": true, "backend": true, "timeout": true, "reps": true, "seed": true, "workers": true, "list": true, "o": true, "resume": true, "retries": true, "baseline": true, "faildelta": true, "http": true, "paper": true}
		flag.Visit(func(f *flag.Flag) {
			if sweepFlags[f.Name] {
				fmt.Fprintf(os.Stderr, "-%s has no effect with -trend (it only reads saved results files)\n", f.Name)
				os.Exit(2)
			}
		})
		if err := printTrend(*trendF); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// The counts follow the axis lists' rule (-procs, -n): positive integers.
	for _, name := range []string{"reps", "workers"} {
		if _, err := matrix.ParseInts(name, flag.Lookup(name).Value.String()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	spec, err := buildSpec(*paper, *envF, *modeF, *gridF, *problemF, *procsF, *sizesF, *scenarioF, *backendF, *operatorF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// A degradation measurement needs its static baseline: when only
	// dynamic scenarios are selected, sweep the static counterparts too
	// (before -list, so the listing matches what the same flags sweep).
	if addStaticIfMissing(&spec) {
		fmt.Fprintln(os.Stderr, "note: adding the static scenario so degradation columns have their baseline")
	}
	if *list {
		cells := spec.Cells()
		for _, c := range cells {
			fmt.Println(c.Key())
		}
		fmt.Fprintf(os.Stderr, "%d cells (nothing run; drop -list to sweep them)\n", len(cells))
		return
	}
	if *failDelta != 0 && *baseline == "" {
		fmt.Fprintln(os.Stderr, "-faildelta needs -baseline")
		os.Exit(2)
	}
	// Load the baseline before sweeping so a bad path fails in
	// milliseconds, not after minutes of simulation.
	var base *report.Set
	if *baseline != "" {
		if base, err = report.ReadFile(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	cells := spec.Cells()
	if len(cells) == 0 {
		fmt.Fprintln(os.Stderr, "the filters select no runnable cells (note: async×mpi is unsupported, and native backends run the scenarios with a transport analogue: static, flaky-adsl, lossy-wan)")
		os.Exit(2)
	}
	if *failDelta != 0 {
		keys := make([]string, len(cells))
		for i, c := range cells {
			keys[i] = c.Key()
		}
		if err := base.Covers(keys); err != nil {
			fmt.Fprintf(os.Stderr, "-faildelta against %s would pass vacuously: %v\n", *baseline, err)
			os.Exit(2)
		}
	}

	// Crash-safe streaming: every completed cell appends to a JSONL
	// sidecar. With -resume, prior rows are reused and new rows extend the
	// same file; otherwise a fresh sidecar is derived from -o.
	var prior []report.SidecarRow
	var priorStats report.SidecarStats
	var sidecar *report.SidecarWriter
	sidecarPath := ""
	if *resume != "" {
		if prior, priorStats, err = report.ReadSidecarWithStats(*resume); err != nil {
			fmt.Fprintf(os.Stderr, "reading -resume sidecar: %v\n", err)
			os.Exit(2)
		}
		// A non-empty file with zero valid rows is not a sidecar (most
		// likely the .json results file was passed instead of its .jsonl
		// sidecar): refuse before re-running everything and appending
		// JSONL rows into it.
		if len(prior) == 0 {
			if st, serr := os.Stat(*resume); serr == nil && st.Size() > 0 {
				fmt.Fprintf(os.Stderr, "%s holds no valid sidecar rows — -resume takes the .jsonl sidecar, not the .json results file\n", *resume)
				os.Exit(2)
			}
		}
		sidecarPath = *resume
		if sidecar, err = report.AppendSidecar(sidecarPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else if *outFile != "" {
		sidecarPath = sidecarFor(*outFile)
		if sidecar, err = report.CreateSidecar(sidecarPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// Sweep telemetry is always collected (it is how the flags column and
	// the weight-based ETA are computed); -http additionally serves it
	// live. Listen before sweeping so a bad address fails in milliseconds.
	metrics := obs.NewRegistry()
	progress := obs.NewSweep(*workers)
	if *httpAddr != "" {
		ln, lerr := net.Listen("tcp", *httpAddr)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "-http %s: %v\n", *httpAddr, lerr)
			os.Exit(2)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, obs.NewMux(metrics, progress)) }()
		fmt.Printf("observability: http://%s/progress http://%s/metrics http://%s/debug/pprof/\n",
			ln.Addr(), ln.Addr(), ln.Addr())
	}

	if *paper != "" {
		fmt.Printf("Table 1: chosen parameters (preset %s)\n\n%s\n", *paper, spec.Parameters())
		for _, prob := range spec.Problems {
			fmt.Printf("Table 4: thread policy of each environment, %s problem\n\n%s\n", prob, matrix.ThreadPolicies(prob))
		}
	}
	fmt.Printf("sweeping %d cells with %d workers, %d rep(s) per cell\n", len(cells), *workers, *reps)
	if sidecarPath != "" {
		fmt.Printf("streaming completed cells to %s\n", sidecarPath)
	}
	if *resume != "" {
		printResumeSkips(spec, prior, priorStats, *reps, *seed, *timeout)
	}
	fmt.Println()

	done, executed, reused := 0, 0, 0
	start := time.Now()
	set, err := matrix.Run(spec, matrix.Options{
		Workers:  *workers,
		Timeout:  *timeout,
		Reps:     *reps,
		Seed:     *seed,
		Retries:  *retries,
		Sidecar:  sidecar,
		Prior:    prior,
		Metrics:  metrics,
		Progress: progress,
		OnResult: func(r report.Result) {
			done++
			status := fmt.Sprintf("%12s  iters=%d", report.FmtSec(r.TimeSec), r.Iters)
			switch {
			case r.Error != "":
				status = "error: " + r.Error
			case r.Resumed:
				reused++
				status += "  (cached)"
			}
			if !r.Resumed {
				executed++
			}
			if r.Flags != "" {
				status += "  flags=" + r.Flags
			}
			// ETA from the sweep tracker: remaining schedule weight over the
			// observed weight-completion rate. Cells reused from -resume
			// contribute to neither side, so a resumed sweep's estimate
			// covers only the work actually left — a coarse hint, not a
			// promise (workers overlap and the weights are estimates).
			eta := ""
			if snap := progress.Snapshot(); snap.EtaSec >= 0 && done < len(cells) {
				eta = fmt.Sprintf("  eta ~%s", (time.Duration(snap.EtaSec * float64(time.Second))).Round(time.Second))
			}
			fmt.Printf("[%3d/%d] %-44s %s%s\n", done, len(cells), r.Key(), status, eta)
		},
	})
	if sidecar != nil {
		if cerr := sidecar.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	sweepDegraded := false
	if err != nil {
		if set == nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The sweep completed but something went wrong alongside it. Keep
		// every measurement (tables, final JSON), say precisely what was
		// lost, and exit non-zero at the end.
		sweepDegraded = true
		switch {
		case errors.Is(err, problems.ErrMutated):
			fmt.Fprintf(os.Stderr, "warning: %v — a solver wrote to shared read-only data; treat this run's measurements as suspect\n", err)
		case errors.Is(err, matrix.ErrPersist):
			fmt.Fprintf(os.Stderr, "warning: %v — results are complete, but the sidecar is incomplete and cannot be fully resumed from\n", err)
		default:
			fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		}
	}
	set.CreatedAt = start.UTC().Format(time.RFC3339)
	// The command as a reader would retype it (report.ReadFile quotes it as
	// the way to regenerate the file), not the build cache path of a `go run`.
	set.Command = strings.Join(append([]string{"aiacbench"}, os.Args[1:]...), " ")

	fmt.Printf("\nswept %d cells in %v (host time)\n", len(cells), time.Since(start).Round(time.Millisecond))
	if *resume != "" {
		fmt.Printf("resume: reused %d cached cells from %s; executed %d cells\n", reused, *resume, executed)
	}
	fmt.Println()
	fmt.Print(set.Table())
	if at := set.AttributionTable(); at != "" {
		fmt.Print(at)
	}
	if sc := set.ScalingTable(); sc != "" {
		fmt.Print(sc)
	}
	if dg := set.DegradationTable(); dg != "" {
		fmt.Print(dg)
	}
	if fl := set.FlagsTable(); fl != "" {
		fmt.Print(fl)
	}
	if cal := set.CalibrationTable(); cal != "" {
		fmt.Print(cal)
	}

	if *outFile != "" {
		if err := report.WriteFile(*outFile, set); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *outFile, err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *outFile)
	}
	if base != nil {
		fmt.Println()
		fmt.Print(report.Diff(base, set))
		if *failDelta != 0 {
			if v := report.Regressions(base, set, *failDelta); len(v) > 0 {
				fmt.Fprintf(os.Stderr, "\nregression check failed (±%.2f%%):\n", *failDelta)
				for _, line := range v {
					fmt.Fprintf(os.Stderr, "  %s\n", line)
				}
				os.Exit(1)
			}
			fmt.Printf("\nregression check passed (±%.2f%%)\n", *failDelta)
		}
	}
	if sweepDegraded {
		os.Exit(1)
	}
}

// printResumeSkips reports the per-reason histogram of prior sidecar rows
// this sweep cannot reuse — unreadable lines first (truncated tail,
// foreign content), then valid rows whose content address diverged
// (matrix.ResumeSkips) — so a resume that re-runs cells says why instead
// of silently sweeping.
func printResumeSkips(spec matrix.Spec, prior []report.SidecarRow, stats report.SidecarStats, reps int, seed int64, timeout time.Duration) {
	skips := matrix.ResumeSkips(spec, prior, reps, seed, timeout)
	if stats.Truncated > 0 {
		skips["truncated-tail"] += stats.Truncated
	}
	if stats.Garbage > 0 {
		skips["unparseable"] += stats.Garbage
	}
	if len(skips) == 0 {
		return
	}
	reasons := make([]string, 0, len(skips))
	for r := range skips {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool {
		if skips[reasons[i]] != skips[reasons[j]] {
			return skips[reasons[i]] > skips[reasons[j]]
		}
		return reasons[i] < reasons[j]
	})
	total := 0
	parts := make([]string, 0, len(reasons))
	for _, r := range reasons {
		total += skips[r]
		parts = append(parts, fmt.Sprintf("%s=%d", r, skips[r]))
	}
	fmt.Printf("resume: skipping %d sidecar row(s): %s\n", total, strings.Join(parts, " "))
}

// sidecarFor derives the JSONL sidecar path from the results file:
// BENCH_x.json → BENCH_x.jsonl.
func sidecarFor(outFile string) string {
	return strings.TrimSuffix(outFile, ".json") + ".jsonl"
}

// addStaticIfMissing extends the scenario axis with "static" when only
// dynamic scenarios are selected; it reports whether it did.
func addStaticIfMissing(spec *matrix.Spec) bool {
	if len(spec.Scenarios) == 0 {
		return false
	}
	for _, s := range spec.Scenarios {
		if s == "static" {
			return false
		}
	}
	spec.Scenarios = append([]string{"static"}, spec.Scenarios...)
	return true
}

// buildSpec assembles the sweep spec: the default sweep, or the named paper
// preset, with the axis filters applied on top.
func buildSpec(preset, env, mode, grid, problem, procs, sizes, scenarios, backends, operator string) (matrix.Spec, error) {
	spec := matrix.DefaultSpec()
	var err error
	if preset != "" {
		if spec, err = matrix.Preset(preset); err != nil {
			return spec, err
		}
	}
	if spec.Linear.Operator, err = matrix.ParseOperator(operator); err != nil {
		return spec, err
	}
	if spec.Envs, err = matrix.ParseEnvs(env); err != nil {
		return spec, err
	}
	if spec.Backends, err = matrix.ParseBackends(backends); err != nil {
		return spec, err
	}
	if spec.Modes, err = matrix.ParseModes(mode); err != nil {
		return spec, err
	}
	if grid != "" {
		if spec.Grids, err = matrix.ParseGrids(grid); err != nil {
			return spec, err
		}
	}
	if problem != "" {
		if spec.Problems, err = matrix.ParseProblems(problem); err != nil {
			return spec, err
		}
	}
	if scenarios != "" {
		if spec.Scenarios, err = matrix.ParseScenarios(scenarios); err != nil {
			return spec, err
		}
	}
	if p, err := matrix.ParseInts("procs", procs); err != nil {
		return spec, err
	} else if p != nil {
		spec.Procs = p
	}
	if n, err := matrix.ParseInts("size", sizes); err != nil {
		return spec, err
	} else if n != nil {
		spec.Sizes = n
	}
	return spec, nil
}
