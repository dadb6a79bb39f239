// Command aiacbench sweeps the paper's experiment matrix — environment ×
// mode × grid × problem × procs × size × scenario × backend — across a
// bounded pool of concurrent simulations, prints the comparison tables,
// and persists the results as JSON so later runs can be diffed against
// them.
//
// Matrix mode (the default):
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
// Every sweep with a results file streams each completed cell to a JSONL
// sidecar next to it (BENCH_pr42.json → BENCH_pr42.jsonl), fsync'd per
// row, so killing the sweep loses nothing already measured. -resume reads
// such a sidecar back and re-executes only the cells whose content
// address — cell key, problem parameters, seeds, repetition count, report
// schema, protocol constants, native timeout — has no valid row yet; new
// results append to the same sidecar, and the final JSON is written as
// usual, indistinguishable from an uninterrupted run.
//
// Native cells (backend chan or tcp) run the solve for real — goroutine
// ranks over an in-process or TCP-loopback transport shaped like the
// cell's grid (internal/backend) — serially after the simulated pool, so
// their wall-clock numbers are taken on a quiet host. Every problem runs
// natively, and the network scenarios with a steady-state transport
// analogue (flaky-adsl, lossy-wan) are legal native cells. Wall times vary
// run to run, so build -faildelta regression baselines from sim-only
// sweeps.
//
// Paper-table mode regenerates the evaluation section's tables and figures
// verbatim (see internal/bench):
//
//	aiacbench -table 2        # sparse linear comparison (Table 2)
//	aiacbench -table 3        # non-linear comparison (Table 3)
//	aiacbench -all            # every table and figure
//	aiacbench -all -paper     # at the paper's full problem sizes (slow)
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

	"aiac/internal/bench"
	"aiac/internal/matrix"
	"aiac/internal/obs"
	"aiac/internal/problems"
	"aiac/internal/report"
)

func main() {
	var (
		// Matrix-mode flags.
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

		// Paper-table mode flags.
		table  = flag.Int("table", 0, "regenerate paper table 1, 2, 3 or 4 instead of sweeping")
		figure = flag.Int("figure", 0, "regenerate paper figure 3 instead of sweeping")
		all    = flag.Bool("all", false, "regenerate every paper table and figure")
		paper  = flag.Bool("paper", false, "use the paper's full problem sizes (hours)")
	)
	flag.Parse()

	// The modes share only -procs; reject flags from the other modes
	// instead of silently ignoring them.
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *trendF != "" {
		for _, name := range []string{"env", "mode", "grid", "problem", "procs", "n", "scenario", "backend", "timeout", "reps", "seed", "workers", "list", "o", "resume", "retries", "baseline", "faildelta", "http", "table", "figure", "all", "paper"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "-%s has no effect with -trend (it only reads saved results files)\n", name)
				os.Exit(2)
			}
		}
		if err := printTrend(*trendF); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *table != 0 || *figure != 0 || *all {
		for _, name := range []string{"env", "mode", "grid", "problem", "n", "scenario", "backend", "timeout", "reps", "seed", "workers", "list", "o", "resume", "retries", "baseline", "faildelta", "http"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "-%s is a matrix-sweep flag; it has no effect with -table/-figure/-all\n", name)
				os.Exit(2)
			}
		}
		paperTables(*table, *figure, *all, *paper, *procsF)
		return
	}
	if explicit["paper"] {
		fmt.Fprintln(os.Stderr, "-paper selects the paper's table sizes and needs -table, -figure or -all; for a bigger sweep use -n/-procs")
		os.Exit(2)
	}

	spec, err := buildSpec(*envF, *modeF, *gridF, *problemF, *procsF, *sizesF, *scenarioF, *backendF, *operatorF)
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
	set.Command = strings.Join(os.Args, " ")

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

// buildSpec assembles the sweep spec from the axis filters.
func buildSpec(env, mode, grid, problem, procs, sizes, scenarios, backends, operator string) (matrix.Spec, error) {
	spec := matrix.DefaultSpec()
	var err error
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

// paperTables regenerates the evaluation section's tables and figures
// (internal/bench), the pre-matrix behaviour of this command.
func paperTables(table, figure int, all, paper bool, procsF string) {
	scale := bench.DefaultScale()
	if paper {
		scale = bench.PaperScale()
	}
	if p, err := matrix.ParseInts("procs", procsF); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	} else if len(p) > 1 {
		fmt.Fprintln(os.Stderr, "paper-table mode takes a single -procs value")
		os.Exit(2)
	} else if len(p) == 1 {
		scale.NProcs = p[0]
	}

	did := false
	want := func(t int) bool { return all || table == t }
	if want(1) {
		fmt.Println(bench.Table1(scale))
		did = true
	}
	if want(2) {
		fmt.Println(bench.FormatRows("Table 2: execution times for the sparse linear problem", bench.Table2(scale)))
		did = true
	}
	if want(3) {
		fmt.Println(bench.FormatRows("Table 3: execution times on each cluster for the non-linear problem", bench.Table3(scale)))
		did = true
	}
	if want(4) {
		fmt.Println(bench.Table4())
		did = true
	}
	if all || figure == 3 {
		fmt.Println(bench.FormatFigure3(bench.Figure3(scale)))
		did = true
	}
	if !did {
		fmt.Fprintf(os.Stderr, "nothing to do: -table takes 1-4, -figure takes 3 (got -table %d -figure %d)\n", table, figure)
		os.Exit(2)
	}
}
