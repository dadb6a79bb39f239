// Command aiacrun performs one solve of the sparse linear test problem
// with a chosen environment, mode, and grid — the interactive companion to
// aiacbench for exploring a single cell of the experiment matrix. The
// environment/grid/mode names are the matrix axis values (internal/matrix),
// so a cell printed by aiacbench can be re-run here verbatim.
//
// With -backend chan or tcp the solve runs natively instead of on the
// simulator: goroutine ranks over an in-process or TCP-loopback transport
// shaped like the chosen grid (internal/backend), measured in wall-clock
// time. The environment is then the Go runtime itself (the matrix's "go"
// pseudo-environment) and -env must be left unset.
//
// Usage:
//
//	aiacrun -env pm2 -mode async -grid 3site -procs 12 -n 60000
//	aiacrun -env mpi -mode sync  -grid local -procs 8
//	aiacrun -env madmpi -grid adsl -balanced
//	aiacrun -env pm2 -grid adsl -scenario flaky-adsl   # under grid dynamics
//	aiacrun -backend tcp -grid adsl -procs 8 -n 12000  # native wall-clock run
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/backend"
	"aiac/internal/des"
	"aiac/internal/la"
	"aiac/internal/matrix"
	"aiac/internal/netsim"
	"aiac/internal/obs"
	"aiac/internal/problems"
	"aiac/internal/report"
	"aiac/internal/scenario"
	"aiac/internal/sparse"
	"aiac/internal/trace"
)

func main() {
	var (
		envName  = flag.String("env", "pm2", "environment: mpi, madmpi, pm2, omniorb")
		mode     = flag.String("mode", "async", "iteration scheme: async (AIAC) or sync (SISC)")
		gridName = flag.String("grid", "3site", "grid: 3site, adsl, local, multiproto")
		procs    = flag.Int("procs", 12, "number of processors")
		n        = flag.Int("n", 60000, "unknowns in the sparse system")
		diags    = flag.Int("diags", 30, "off-diagonals")
		rho      = flag.Float64("rho", 0.88, "diagonal dominance ratio (spectral bound)")
		eps      = flag.Float64("eps", 1e-7, "convergence threshold")
		maxIters = flag.Int("maxiters", 1000000, "per-processor iteration cap")
		matseed  = flag.Int64("matseed", 1, "matrix generator seed")
		operator = flag.String("operator", "", "matrix operator: dia (materialized bands; default) or stencil (implicit entries recomputed per row, O(diags) matrix memory — for sizes where assembly no longer fits)")
		seed     = flag.Int64("seed", 0, "run-variation seed, as in aiacbench: network jitter on the simulator, deterministic scenario loss shaping on a native backend (0 = off)")
		balanced = flag.Bool("balanced", false, "speed-proportional row blocks")
		gantt    = flag.Bool("gantt", false, "print the execution-flow chart")
		metrics  = flag.Bool("metrics", false, "print the run's metrics in Prometheus text format, stamped with the virtual clock (includes per-rank idle fractions)")
		scenF    = flag.String("scenario", "static", "grid-dynamics scenario (one of: static, flaky-adsl, diurnal-load, node-churn, lossy-wan; native backends run the first three)")
		backendF = flag.String("backend", "sim", "execution backend: sim (the discrete-event simulator; sim-fast is an accepted synonym), chan or tcp (native wall-clock run)")
		timeout  = flag.Duration("timeout", matrix.DefaultNativeTimeout, "wall-clock guard of a native run: cancelled and reported as STALL beyond this")
		list     = flag.Bool("list", false, "print the matrix cell key these flags select and exit without running (the key re-runs verbatim in aiacbench/aiactrace)")
	)
	flag.Parse()

	op, err := matrix.ParseOperator(*operator)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		// Validate exactly like the run paths, so every printed key is
		// one this repository can actually run.
		modes, err := matrix.ParseModes(*mode)
		if err != nil || len(modes) != 1 {
			fmt.Fprintf(os.Stderr, "bad -mode %q: want async or sync\n", *mode)
			os.Exit(2)
		}
		if _, err := matrix.ParseGrids(*gridName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := scenario.ByName(*scenF); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		env := *envName
		if !matrix.SimulatedBackend(*backendF) {
			if _, err := backend.NewTransport(*backendF, *procs); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if !backend.NativeScenario(*scenF) {
				fmt.Fprintf(os.Stderr, "scenario %q has no native analogue (native backends run: %s)\n",
					*scenF, strings.Join(backend.NativeScenarioNames, ", "))
				os.Exit(2)
			}
			env = matrix.NativeEnv
		} else {
			envs, err := matrix.ParseEnvs(*envName)
			if err != nil || len(envs) != 1 {
				if err == nil {
					err = fmt.Errorf("-env takes a single environment")
				}
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if !matrix.Supported(envs[0], modes[0]) {
				fmt.Fprintf(os.Stderr, "%s does not support %s mode (mono-threaded MPI has no receive threads)\n", envs[0], modes[0])
				os.Exit(2)
			}
		}
		cell := matrix.Cell{
			Env: env, Mode: modes[0], Grid: *gridName, Problem: "linear",
			Procs: *procs, Size: *n, Scenario: *scenF, Backend: *backendF,
		}
		fmt.Println(cell.Key())
		return
	}

	if !matrix.SimulatedBackend(*backendF) {
		// A native run has no simulated middleware or trace: reject the
		// flags that would be silently ignored.
		explicit := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, name := range []string{"env", "balanced", "gantt", "metrics"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "-%s applies to the simulator; a native -backend run ignores it (the environment is the Go runtime)\n", name)
				os.Exit(2)
			}
		}
		if !backend.NativeScenario(*scenF) {
			fmt.Fprintf(os.Stderr, "scenario %q has no native analogue (native backends run: %s)\n",
				*scenF, strings.Join(backend.NativeScenarioNames, ", "))
			os.Exit(2)
		}
		runNative(*backendF, *mode, *gridName, *scenF, op, *procs, *n, *diags, *rho, *eps, *maxIters, *matseed, *seed, *timeout)
		return
	}

	scen, err := scenario.ByName(*scenF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	modes, err := matrix.ParseModes(*mode)
	if err != nil || len(modes) != 1 {
		fmt.Fprintf(os.Stderr, "bad -mode %q: want async or sync\n", *mode)
		os.Exit(2)
	}
	m := modes[0]
	envs, err := matrix.ParseEnvs(*envName)
	if err != nil || len(envs) != 1 {
		if err == nil {
			err = fmt.Errorf("-env takes a single environment")
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	envID := envs[0]
	if !matrix.Supported(envID, m) {
		fmt.Fprintf(os.Stderr, "%s does not support %s mode (mono-threaded MPI has no receive threads)\n", envID, m)
		os.Exit(2)
	}

	sim := des.New()
	grid, err := matrix.NewGrid(sim, *gridName, *procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var tr *trace.Collector
	if *gantt || *metrics {
		tr = trace.New()
	}
	env, err := matrix.NewEnv(grid, envID, true, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deployment failed: %v\n", err)
		os.Exit(1)
	}

	if *seed != 0 {
		grid.Net.SetJitter(0.02, *seed)
	}
	rt := scenario.Deploy(scen, grid)
	prob := problems.NewLinearOp(op, *n, *diags, *rho, *matseed)
	if *balanced {
		prob.Weights = grid.SpeedWeights()
	}
	resid := obs.NewResiduals(*procs)
	cfg := aiac.Config{Mode: m, Eps: *eps, MaxIters: *maxIters, Trace: tr, Dynamics: rt, Residuals: resid}

	fmt.Printf("solving n=%d (%d diagonals, rho<%.2f) on %s with %s, %s, %d procs, scenario %s\n",
		*n, *diags, *rho, *gridName, env.Name(), m, *procs, scen.Name)
	rep := aiac.Run(grid, env, prob, cfg)

	fmt.Printf("\nresult:        %s\n", rep.Reason)
	fmt.Printf("virtual time:  %v\n", rep.Elapsed)
	fmt.Printf("iterations:    %v (total %d)\n", rep.ItersPerRank, rep.TotalIters())
	fmt.Printf("error vs true: %.3e\n", la.MaxNormDiff(rep.X, prob.XTrue))
	fmt.Printf("state msgs:    %d\n", rep.StateMsgs)
	if scen.Name != "static" {
		fmt.Printf("scenario:      %d events applied", rt.Events())
		if rep.Restarts > 0 {
			fmt.Printf(", %d restarts", rep.Restarts)
		}
		if rep.Reconverge > 0 {
			fmt.Printf(", reconverged %v after the last perturbation", rep.Reconverge)
		}
		fmt.Println()
	}
	st := grid.Net.StatsSnapshot()
	fmt.Printf("network:       %d messages, %.1f MB (%d inter-site, %d dropped)\n",
		st.Messages, float64(st.Bytes)/1e6, st.InterSite, st.Dropped)
	converged := rep.Reason == aiac.StopConverged && rep.TaintedRestarts == 0
	flags := obs.Detect(resid, converged, obs.DetectorParams{Eps: *eps})
	if len(flags) > 0 {
		fmt.Printf("red flags:     %s\n", strings.Join(flags, ", "))
	}
	if *gantt {
		fmt.Println()
		fmt.Print(tr.Gantt(96))
	}
	if *metrics {
		fmt.Println()
		printMetrics(rep, tr, st, flags, sim)
	}
}

// printMetrics renders the finished run as Prometheus text. Series are
// stamped with the simulation's virtual clock (the solve's elapsed virtual
// time), not the host's wall clock: scraping never happened, the exposition
// is a record of the run.
func printMetrics(rep *aiac.Report, tr *trace.Collector, st netsim.Stats, flags []string, sim *des.Simulator) {
	reg := obs.NewRegistry()
	elapsed := rep.Elapsed.Seconds()
	reg.SetTimeSource(func() float64 { return elapsed })

	reg.Gauge("aiac_run_time_seconds", "Virtual elapsed time of the solve.").With().Set(elapsed)
	iters := reg.Counter("aiac_iterations_total", "Local iterations performed, per rank.", "rank")
	idle := reg.Gauge("aiac_rank_idle_fraction", "Fraction of the run the rank spent idle (blocked on synchronous exchanges).", "rank")
	busySec := reg.Gauge("aiac_rank_busy_seconds", "Virtual time the rank spent computing (trace compute spans).", "rank")
	idleSec := reg.Gauge("aiac_rank_idle_seconds", "Virtual time the rank spent idle (trace idle spans).", "rank")
	for r, n := range rep.ItersPerRank {
		rank := strconv.Itoa(r)
		iters.With(rank).Add(float64(n))
		// One BusyIdle read drives the fraction and both absolute series,
		// so the three can never disagree about what the trace recorded
		// (trace.TestIdleFractionMatchesBusyIdle pins the derivation).
		busy, idleT := tr.BusyIdle(r)
		if total := busy + idleT; total > 0 {
			idle.With(rank).Set(float64(idleT) / float64(total))
		} else {
			idle.With(rank).Set(0)
		}
		busySec.With(rank).Set(busy.Seconds())
		idleSec.With(rank).Set(idleT.Seconds())
	}
	reg.Counter("aiac_messages_total", "Data/control messages delivered.").With().Add(float64(st.Messages))
	reg.Counter("aiac_bytes_total", "Bytes carried by delivered messages.").With().Add(float64(st.Bytes))
	reg.Counter("aiac_messages_dropped_total", "Messages lost to scenario loss models or crashed nodes.").With().Add(float64(st.Dropped))
	reg.Counter("aiac_state_messages_total", "Convergence-protocol state messages.").With().Add(float64(rep.StateMsgs))
	reg.Counter("aiac_restarts_total", "Rank crash/restart cycles observed.").With().Add(float64(rep.Restarts))
	reg.Counter("aiac_heartbeats_total", "Confirmed-state re-sends (protocol heartbeats).").With().Add(float64(rep.Heartbeats))
	reg.Counter("aiac_stop_rebroadcasts_total", "Coordinator post-stop stop repeats.").With().Add(float64(rep.StopRebroadcasts))
	reg.Counter("aiac_reconfirm_rounds_total", "Post-state-loss re-confirmation rounds.").With().Add(float64(rep.ReconfirmRounds))
	reg.Counter("aiac_des_events_total", "Simulator events executed (host work the run cost, not a virtual-time result).").With().Add(float64(sim.Events()))
	reg.Gauge("aiac_des_queue_high_water", "Largest number of simulator events pending at once.").With().Set(float64(sim.QueueHighWater()))
	reg.Gauge("aiac_trace_spans", "Compute/idle spans the trace holds (a span is a run of back-to-back equal iterations).").With().Set(float64(len(tr.Spans)))
	reg.Gauge("aiac_trace_iterations", "Compute iterations those spans encode.").With().Set(float64(tr.Iterations()))
	reg.Gauge("aiac_kernel_path", "Primitives the DIA kernels ran on in this process, chosen at start-up from the CPU (host fact, not a virtual-time result).", "path").With(sparse.KernelPath()).Set(1)
	for _, f := range flags {
		reg.Counter("aiac_redflags_total", "Convergence red-flag verdicts raised by the trajectory detectors.", "flag").With(f).Inc()
	}
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runNative performs one wall-clock solve of a native matrix cell. It runs
// through matrix.RunCellOnce — the exact code path a native sweep cell
// takes, including grid/scenario transport shaping — so the flags (in
// particular -timeout, the wall-clock guard) behave identically here and
// in aiacbench.
func runNative(bk, mode, gridName, scen, op string, procs, n, diags int, rho, eps float64, maxIters int, matseed, seed int64, timeout time.Duration) {
	modes, err := matrix.ParseModes(mode)
	if err != nil || len(modes) != 1 {
		fmt.Fprintf(os.Stderr, "bad -mode %q: want async or sync\n", mode)
		os.Exit(2)
	}
	cell := matrix.Cell{
		Env: matrix.NativeEnv, Mode: modes[0], Grid: gridName, Problem: "linear",
		Procs: procs, Size: n, Scenario: scen, Backend: bk,
	}
	spec := matrix.DefaultSpec()
	spec.Linear = matrix.LinearParams{Diags: diags, Rho: rho, Eps: eps, MaxIters: maxIters, Seed: matseed, Operator: op}
	fmt.Printf("solving n=%d (%d diagonals, rho<%.2f) natively on the %s-shaped %s transport, %s, %d procs, scenario %s\n",
		n, diags, rho, gridName, bk, modes[0], procs, scen)
	r, err := matrix.RunCellOnce(cell, spec, 0, seed, timeout, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	status := "converged"
	if !r.Converged {
		status = "did not converge"
	}
	if r.Stalled {
		status = "stalled (wall-clock guard)"
	}
	fmt.Printf("\nresult:        %s\n", status)
	fmt.Printf("wall clock:    %s\n", report.FmtSec(r.WallSec))
	fmt.Printf("iterations:    %d (all ranks)\n", r.Iters)
	fmt.Printf("error vs true: %.3e\n", r.Residual)
	fmt.Printf("network:       %d messages, %.1f MB (%d dropped)\n",
		r.Messages, float64(r.Bytes)/1e6, r.Dropped)
	if r.Stalled {
		os.Exit(1)
	}
}
