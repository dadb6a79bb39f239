// Command aiactrace renders execution-flow charts.
//
// By default it regenerates the paper's figures: the SISC trace with idle
// gaps between iterations (Figure 1) and the AIAC trace without them
// (Figure 2), as ASCII Gantt charts — matrix.FigureCells, two cells of
// the Table 2 preset on two processors.
//
// Given cell flags, it instead traces one cell of the experiment matrix —
// the flags are parsed by the same axis parsing as cmd/aiacbench and
// cmd/aiacrun (internal/matrix), so any cell printed by a sweep can be
// traced verbatim, including under a grid-dynamics scenario:
//
//	aiactrace                                  # Figures 1 and 2
//	aiactrace -figure sisc -width 120          # Figure 1 only, wider chart
//	aiactrace -env pm2 -mode async -grid adsl -procs 8 -n 3000
//	aiactrace -env mpi -mode sync -grid adsl -scenario flaky-adsl
//
// With -chrome, the cell's trace is additionally exported as Chrome
// trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing:
//
//	aiactrace -env mpi -grid adsl -scenario flaky-adsl -chrome trace.json
//
// With -critpath, the cell's causal critical path is extracted
// (internal/obs/critpath) and printed as an attribution summary plus the
// annotated rank-hop listing — where every nanosecond of the convergence
// time went, and through which messages the path moved between ranks:
//
//	aiactrace -env mpi -mode sync -grid adsl -critpath
//
// With -explain, two cells given as full cell keys (as printed in every
// sweep table) are traced and their attributions diffed — the direct
// answer to "why is this cell faster than that one":
//
//	aiactrace -explain pm2/async/adsl/linear/p8/n3000/static/sim \
//	                   mpi/sync/adsl/linear/p8/n3000/static/sim
package main

import (
	"flag"
	"fmt"
	"os"

	"aiac/internal/matrix"
	"aiac/internal/obs"
	"aiac/internal/obs/critpath"
	"aiac/internal/report"
	"aiac/internal/trace"
)

func main() {
	var (
		figure = flag.String("figure", "both", "paper figure to render when no cell flags are given: sisc, aiac or both")
		width  = flag.Int("width", 72, "chart width in characters")

		// Cell flags, shared with aiacbench/aiacrun (internal/matrix).
		envF     = flag.String("env", "", "environment of the cell to trace (mpi, pm2, madmpi, omniorb)")
		modeF    = flag.String("mode", "async", "iteration scheme of the cell: async or sync")
		gridF    = flag.String("grid", "3site", "grid: 3site, adsl, local, multiproto")
		problemF = flag.String("problem", "linear", "problem: linear or chem")
		procs    = flag.Int("procs", 8, "number of processors")
		size     = flag.Int("n", 0, "problem size (0 = per-problem default)")
		scenF    = flag.String("scenario", "static", "grid-dynamics scenario")
		seed     = flag.Int64("seed", 0, "network-jitter seed (0 = off), as in aiacbench")
		backendF = flag.String("backend", "sim", "execution backend of the cell: sim, the discrete-event simulator (sim-fast is an accepted synonym); tracing needs the simulator")
		chromeF  = flag.String("chrome", "", "also write the trace as Chrome trace-event JSON to this file (Perfetto-loadable)")
		critF    = flag.Bool("critpath", false, "print the cell's causal critical-path attribution and annotated rank-hop listing")
		explainF = flag.Bool("explain", false, "diff the critical-path attributions of two cells given as positional cell keys (env/mode/grid/problem/pP/nN/scenario/backend)")
	)
	flag.Parse()

	// The two modes are disjoint: reject flags from the other one instead
	// of silently ignoring them (same policy as aiacbench).
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *explainF {
		for _, name := range []string{"env", "mode", "grid", "problem", "procs", "n", "scenario", "backend", "chrome", "critpath", "figure"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "-explain takes two positional cell keys and conflicts with -%s\n", name)
				os.Exit(2)
			}
		}
		explainCells(flag.Args(), *seed)
		return
	}
	cellFlags := []string{"mode", "grid", "problem", "procs", "n", "scenario", "seed", "backend", "chrome", "critpath"}
	if *envF == "" {
		for _, name := range cellFlags {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "-%s selects a matrix cell to trace and needs -env (figure mode ignores it)\n", name)
				os.Exit(2)
			}
		}
		// Figure mode: the canned two-processor traces of §4.1.
		siscCell, asyncCell, spec := matrix.FigureCells()
		sisc, async := figureTrace(siscCell, spec), figureTrace(asyncCell, spec)
		switch *figure {
		case "sisc":
			fmt.Println("Figure 1: execution flow of a SISC algorithm with two processors")
			fmt.Print(sisc.Gantt(*width))
		case "aiac":
			fmt.Println("Figure 2: execution flow of an AIAC algorithm with two processors")
			fmt.Print(async.Gantt(*width))
		case "both":
			fmt.Println("Figure 1: execution flow of a SISC algorithm with two processors")
			fmt.Print(sisc.Gantt(*width))
			fmt.Printf("\nmean idle fraction: %.1f%%\n\n", 100*sisc.MeanIdleFraction())
			fmt.Println("Figure 2: execution flow of an AIAC algorithm with two processors")
			fmt.Print(async.Gantt(*width))
			fmt.Printf("\nmean idle fraction: %.1f%%\n", 100*async.MeanIdleFraction())
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q (want sisc, aiac or both); to trace a matrix cell, pass -env\n", *figure)
			os.Exit(2)
		}
		return
	}
	if explicit["figure"] {
		fmt.Fprintln(os.Stderr, "-figure renders the paper's canned figures and conflicts with tracing a cell (-env)")
		os.Exit(2)
	}

	cell, spec, err := buildCell(*envF, *modeF, *gridF, *problemF, *scenF, *backendF, *procs, *size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("tracing %s\n", cell.Key())
	tr := trace.New()
	r, err := matrix.RunCellOnce(cell, spec, 0, *seed, 0, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *chromeF != "" {
		f, err := os.Create(*chromeF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obs.WriteChromeTrace(f, tr); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace-event JSON to %s (open in https://ui.perfetto.dev)\n", *chromeF)
	}
	fmt.Print(tr.Gantt(*width))
	status := "converged"
	if !r.Converged {
		status = "did not converge"
	}
	if r.Stalled {
		status = "STALLED"
	}
	fmt.Printf("\n%s: %s in %s (%d iters), mean idle fraction %.1f%%\n",
		cell.Key(), status, report.FmtSec(r.TimeSec), r.Iters, 100*tr.MeanIdleFraction())
	if r.ReconvergeSec > 0 {
		fmt.Printf("reconverged %s after the last perturbation\n", report.FmtSec(r.ReconvergeSec))
	}
	if *critF {
		a, ok := critpath.Analyze(tr, critpath.TotalFromSeconds(r.TimeSec))
		if !ok {
			fmt.Fprintln(os.Stderr, "critpath: trace is not attributable (no compute spans recorded)")
			os.Exit(1)
		}
		fmt.Printf("\ncritical path: %s\n\n", a.Summary())
		fmt.Print(a.Listing(40))
	}
}

// figureTrace runs one of the two cells behind Figures 1-2 and returns its
// execution flow.
func figureTrace(cell matrix.Cell, spec matrix.Spec) *trace.Collector {
	tr := trace.New()
	if _, err := matrix.RunCellOnce(cell, spec, 0, 0, 0, tr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return tr
}

// explainCells traces the two cells named by their full keys and prints
// the side-by-side diff of their critical-path attributions.
func explainCells(keys []string, seed int64) {
	if len(keys) != 2 {
		fmt.Fprintln(os.Stderr, "-explain takes exactly two cell keys, e.g.\n  aiactrace -explain pm2/async/adsl/linear/p8/n3000/static/sim mpi/sync/adsl/linear/p8/n3000/static/sim")
		os.Exit(2)
	}
	attrs := make([]*critpath.Attribution, 2)
	for i, key := range keys {
		cell, err := matrix.ParseKey(key)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !matrix.SimulatedBackend(cell.Backend) {
			fmt.Fprintf(os.Stderr, "cell %s: -explain needs a simulated backend (sim or sim-fast)\n", key)
			os.Exit(2)
		}
		fmt.Printf("tracing %s\n", cell.Key())
		tr := trace.New()
		r, err := matrix.RunCellOnce(cell, matrix.DefaultSpec(), 0, seed, 0, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		a, ok := critpath.Analyze(tr, critpath.TotalFromSeconds(r.TimeSec))
		if !ok {
			fmt.Fprintf(os.Stderr, "cell %s: trace is not attributable (no compute spans recorded)\n", key)
			os.Exit(1)
		}
		attrs[i] = a
	}
	fmt.Println()
	fmt.Print(critpath.Explain(keys[0], attrs[0], keys[1], attrs[1]))
}

// buildCell resolves the cell flags through the shared matrix axis parsing.
func buildCell(env, mode, grid, problem, scen, backend string, procs, size int) (matrix.Cell, matrix.Spec, error) {
	spec := matrix.DefaultSpec()
	var c matrix.Cell
	envs, err := matrix.ParseEnvs(env)
	if err != nil || len(envs) != 1 {
		if err == nil {
			err = fmt.Errorf("-env takes a single environment")
		}
		return c, spec, err
	}
	modes, err := matrix.ParseModes(mode)
	if err != nil || len(modes) != 1 {
		if err == nil {
			err = fmt.Errorf("-mode takes a single mode")
		}
		return c, spec, err
	}
	grids, err := matrix.ParseGrids(grid)
	if err != nil || len(grids) != 1 {
		if err == nil {
			err = fmt.Errorf("-grid takes a single grid")
		}
		return c, spec, err
	}
	problems, err := matrix.ParseProblems(problem)
	if err != nil || len(problems) != 1 {
		if err == nil {
			err = fmt.Errorf("-problem takes a single problem")
		}
		return c, spec, err
	}
	scens, err := matrix.ParseScenarios(scen)
	if err != nil || len(scens) != 1 {
		if err == nil {
			err = fmt.Errorf("-scenario takes a single scenario")
		}
		return c, spec, err
	}
	backends, err := matrix.ParseBackends(backend)
	if err != nil || len(backends) != 1 {
		if err == nil {
			err = fmt.Errorf("-backend takes a single backend")
		}
		return c, spec, err
	}
	if !matrix.SimulatedBackend(backends[0]) && problems[0] == "chem" {
		return c, spec, fmt.Errorf("tracing the chemical problem needs a simulated backend (natively it runs one solve per time step)")
	}
	c = matrix.Cell{
		Env: envs[0], Mode: modes[0], Grid: grids[0], Problem: problems[0],
		Procs: procs, Size: size, Scenario: scens[0], Backend: backends[0],
	}
	if c.Size == 0 {
		c.Size = matrix.DefaultSizeFor(c.Problem)
	}
	if procs < 1 {
		return c, spec, fmt.Errorf("-procs must be positive")
	}
	if !matrix.Supported(c.Env, c.Mode) {
		return c, spec, fmt.Errorf("%s does not support %s mode (mono-threaded MPI has no receive threads)", c.Env, c.Mode)
	}
	return c, spec, nil
}
