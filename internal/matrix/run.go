package matrix

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/backend"
	"aiac/internal/chem"
	"aiac/internal/des"
	"aiac/internal/gmres"
	"aiac/internal/la"
	"aiac/internal/obs"
	"aiac/internal/obs/critpath"
	"aiac/internal/problems"
	"aiac/internal/report"
	"aiac/internal/scenario"
	"aiac/internal/trace"
)

// Options tunes a sweep.
type Options struct {
	// Workers bounds the number of cells simulated concurrently; see
	// SimWorkers for the default and the cap. Results are independent of
	// the value: each cell owns its simulator, and the result set is
	// ordered by the spec's enumeration order, not by completion order.
	// Native (chan/tcp backend) cells measure wall-clock time, so they run
	// one at a time in their own phase after every simulated cell has
	// finished: a second concurrent native cell would oversubscribe the
	// host and corrupt both measurements.
	Workers int
	// Timeout is the wall-clock guard of each native cell: a cell still
	// running after this long is cancelled and reported as stalled
	// rather than hanging the sweep. Default 2 minutes.
	Timeout time.Duration
	// Reps is the number of repetitions per cell, aggregated as
	// median/min of the simulated time. Linear-problem repetition r
	// perturbs the matrix seed to Seed+r; with a non-zero Seed (below),
	// every repetition additionally gets its own network-jitter stream.
	// Problems with neither a seed axis nor jitter are fully
	// deterministic, so their cells run once regardless (the result's
	// Reps field records the count actually run). Default 1.
	Reps int
	// Seed, when non-zero, enables per-message network latency jitter
	// (±2%, netsim.SetJitter): repetition r of every cell draws from the
	// deterministic stream Seed+r, so repetitions measure genuinely
	// distinct executions and their median/min aggregation means
	// something. Zero keeps the jitter-free bit-reproducible behaviour.
	Seed int64
	// OnResult, when non-nil, observes each cell's result as it
	// completes (completion order; serialized by the runner). Results
	// reused from Prior are delivered first, with Resumed set.
	OnResult func(report.Result)
	// Sidecar, when non-nil, receives every executed cell's result
	// (tagged with its content address) the moment it completes — the
	// crash-safe JSONL stream an interrupted sweep resumes from.
	Sidecar *report.SidecarWriter
	// Prior holds the rows of an earlier sweep's sidecar. A cell whose
	// content address — cell key, problem parameters, seeds, repetition
	// count, report schema, protocol constants, native timeout — matches
	// a valid prior row is not re-executed: the prior result is returned
	// with Resumed set.
	Prior []report.SidecarRow
	// Metrics, when non-nil, receives the sweep's telemetry (cells by
	// state, host time, traffic, protocol counters, red flags) as cells
	// complete — the registry behind aiacbench's /metrics endpoint.
	Metrics *obs.Registry
	// Progress, when non-nil, tracks every cell's lifecycle with its
	// makespan-schedule weight — the state behind aiacbench's /progress
	// endpoint and its weight-based ETA. Cells satisfied from Prior are
	// marked cached, so a resumed sweep's ETA covers only the work left.
	Progress *obs.Sweep
}

// SimWorkers is the simulated-cell pool Run starts for a requested worker
// count: the request, capped at GOMAXPROCS, which is also the default for
// requested <= 0. A simulated cell is a busy CPU-bound event loop, so
// oversubscribing the sim phase cannot add progress — it only multiplies
// the live heap the garbage collector must scan. Callers that report the
// pool size report this value.
func SimWorkers(requested int) int {
	if maxp := runtime.GOMAXPROCS(0); requested <= 0 || requested > maxp {
		return maxp
	}
	return requested
}

// ErrPersist marks a sweep whose measurements completed but whose sidecar
// could not record every row: the returned Set is sound, only -resume
// coverage is incomplete. Distinguished (errors.Is) from
// problems.ErrMutated, which taints the measurements themselves.
var ErrPersist = errors.New("matrix: appending to sidecar failed")

// Run sweeps every cell of the spec and returns the collected results in
// enumeration order. Simulated cells run first across the worker pool;
// native cells follow in their own phase, one at a time, so their
// wall-clock measurements are taken on an otherwise quiet host. Within
// each phase cells are scheduled longest-expected-first (schedule.go) so
// the pool never tails on one giant cell; cells whose content address
// matches a valid Prior row are not executed at all, and every executed
// result streams to Sidecar as it completes. All problems of one Run
// share a read-only assembly cache (problems.Cache), so the seven
// environments solving the same generated system build it once.
func Run(spec Spec, opt Options) (*report.Set, error) {
	spec = spec.withDefaults()
	cells := spec.Cells()
	if len(cells) == 0 {
		return nil, fmt.Errorf("matrix: spec selects no cells")
	}
	reps := opt.Reps
	if reps <= 0 {
		reps = 1
	}
	cache := problems.NewCache()
	prior := indexPrior(opt.Prior)

	results := make([]report.Result, len(cells))
	var mu sync.Mutex
	emit := func(r report.Result) {
		RecordResult(opt.Metrics, r)
		if opt.OnResult != nil {
			mu.Lock()
			opt.OnResult(r)
			mu.Unlock()
		}
	}

	// Register every cell with its schedule weight before anything runs,
	// so /progress shows the full sweep (and its remaining-weight ETA)
	// from the first scrape.
	for _, c := range cells {
		opt.Progress.Register(c.Key(), expectedCost(c))
	}

	// Resolve each cell against the prior rows before anything runs:
	// reused cells are answered (and observed) immediately, everything
	// else is scheduled into its phase.
	keys := make([]string, len(cells))
	var simIdx, nativeIdx []int
	for i, c := range cells {
		keys[i] = cellCacheKey(c, spec, reps, opt.Seed, opt.Timeout)
		if r, ok := prior[keys[i]]; ok {
			r.Resumed = true
			results[i] = r
			opt.Progress.FinishedCached(c.Key())
			emit(r)
			continue
		}
		if SimulatedBackend(c.backendName()) {
			simIdx = append(simIdx, i)
		} else {
			nativeIdx = append(nativeIdx, i)
		}
	}

	var persistErr error
	runPhase := func(idx []int, workers int) {
		if len(idx) == 0 {
			return
		}
		if workers > len(idx) {
			workers = len(idx)
		}
		scheduleLongestFirst(idx, cells)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr := trace.New() // this worker's, reused cell after cell
				for i := range jobs {
					opt.Progress.Started(cells[i].Key())
					r := runCell(cells[i], spec, reps, opt.Seed, opt.Timeout, cache, tr)
					results[i] = r
					opt.Progress.Finished(cells[i].Key(), r.HostSec, r.Error != "")
					if opt.Sidecar != nil {
						if err := opt.Sidecar.Append(keys[i], r); err != nil {
							mu.Lock()
							if persistErr == nil {
								persistErr = fmt.Errorf("%w: %v", ErrPersist, err)
							}
							mu.Unlock()
						}
					}
					emit(r)
				}
			}()
		}
		for _, i := range idx {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	runPhase(simIdx, SimWorkers(opt.Workers))
	runPhase(nativeIdx, 1)

	// Two independent failure classes can accompany a completed result
	// set, and both return it rather than discard hours of measurement:
	// a persistence failure (ErrPersist — the measurements are sound but
	// the sidecar is incomplete, so -resume coverage is lost) and a
	// shared-system mutation caught by the end-of-sweep cache
	// verification (problems.ErrMutated — the measurements themselves are
	// suspect; this is the only guard for systems too large to
	// re-checksum per retrieval). The mutation error takes precedence.
	runErr := cache.Verify()
	if runErr == nil {
		runErr = persistErr
	}
	return &report.Set{Results: results}, runErr
}

// before orders repetitions lexicographically over every measured column —
// simulated time first, then the rest as tie-breaks — a total order (up to
// equality of those columns), so sorting is deterministic whatever order
// the repetitions completed in. Floats compare as cmp.Compare does (NaN
// first), then on their bits, so -0 and +0 and NaNs of different payloads
// have fixed places too. Left out: the cell identity, the columns the
// aggregate sets itself (Reps, MinTimeSec, HostSec, Error, ...), the
// protocol constants (the same for every repetition of a cell) and the
// critical-path attribution — it exists only for the traced repetition, so
// letting it order repetitions would make the median pick depend on which
// one carried the trace. TestBeforeOrdersEveryColumn holds the list.
func before(a, b report.Result) int {
	return cmp.Or(
		cmpFloat(a.TimeSec, b.TimeSec),
		cmp.Compare(a.Iters, b.Iters),
		cmp.Compare(a.Messages, b.Messages),
		cmp.Compare(a.Bytes, b.Bytes),
		cmp.Compare(a.InterSite, b.InterSite),
		cmp.Compare(a.Dropped, b.Dropped),
		cmpFloat(a.Residual, b.Residual),
		cmpBool(a.Converged, b.Converged),
		cmpBool(a.Stalled, b.Stalled),
		cmpFloat(a.ReconvergeSec, b.ReconvergeSec),
		cmp.Compare(a.Restarts, b.Restarts),
		cmpFloat(a.WallSec, b.WallSec),
		cmp.Compare(a.Heartbeats, b.Heartbeats),
		cmp.Compare(a.StopRebroadcasts, b.StopRebroadcasts),
		cmp.Compare(a.ReconfirmRounds, b.ReconfirmRounds),
		cmp.Compare(a.Flags, b.Flags),
	)
}

// cmpFloat is cmp.Compare with ties broken on the bits.
func cmpFloat(a, b float64) int {
	return cmp.Or(cmp.Compare(a, b), cmp.Compare(math.Float64bits(a), math.Float64bits(b)))
}

// cmpBool orders false before true.
func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}

// absorb folds one engine report — a solve, or one time step of a chem
// run — into the repetition r, which starts with Converged set:
// iterations and restarts sum, convergence AND-folds (a solve converged
// only if no rank ended on an unvalidated block), a stall OR-folds,
// reconvergence takes the worst, the protocol counters sum and the
// protocol constants are the last report's. It reports whether the solve
// ended on a non-finite residual (aiac.StopNonFinite).
func absorb(r *report.Result, rpt *aiac.Report) (nonFinite bool) {
	r.Iters += rpt.TotalIters()
	r.Converged = r.Converged && rpt.Reason == aiac.StopConverged && rpt.TaintedRestarts == 0
	r.Stalled = r.Stalled || rpt.Stalled
	r.Restarts += rpt.Restarts
	r.ReconvergeSec = max(r.ReconvergeSec, rpt.Reconverge.Seconds())
	r.Heartbeats += rpt.Heartbeats
	r.StopRebroadcasts += rpt.StopRebroadcasts
	r.ReconfirmRounds += rpt.ReconfirmRounds
	r.GraceSec = rpt.Protocol.Grace.Seconds()
	r.HeartbeatSec = rpt.Protocol.Heartbeat.Seconds()
	r.PersistIters = rpt.Protocol.PersistIters
	return rpt.Reason == aiac.StopNonFinite
}

// redFlags is the repetition's red-flag column: obs.Detect's verdicts on
// its residual timelines, and FlagNonFinite when a solve ended on a
// non-finite residual.
func redFlags(resid *obs.Residuals, converged, nonFinite bool, eps float64) string {
	flags := obs.Detect(resid, converged, obs.DetectorParams{Eps: eps})
	if nonFinite {
		flags = append(flags, obs.FlagNonFinite)
		slices.Sort(flags)
	}
	return strings.Join(flags, ",")
}

// scenarioName normalises the cell's scenario ("" means static).
func (c Cell) scenarioName() string {
	if c.Scenario == "" {
		return "static"
	}
	return c.Scenario
}

// backendName normalises the cell's backend ("" means sim).
func (c Cell) backendName() string {
	if c.Backend == "" {
		return "sim"
	}
	return c.Backend
}

// identity is a Result carrying only c's identity columns.
func (c Cell) identity() report.Result {
	return report.Result{
		Env: c.Env, Mode: c.Mode.String(), Grid: c.Grid, Problem: c.Problem,
		Procs: c.Procs, Size: c.Size, Scenario: c.scenarioName(), Backend: c.backendName(),
	}
}

// runCell executes one cell's repetitions and aggregates them; a simulated
// cell's first repetition is traced into tr, which it resets first.
func runCell(c Cell, spec Spec, reps int, seed int64, timeout time.Duration, cache *problems.Cache, tr *trace.Collector) report.Result {
	// Without a jitter seed, only the linear problem, whose matrix seed
	// moves per repetition, has anything to perturb; the chemical
	// simulation is then fully deterministic and extra reps would be
	// bit-identical reruns — run it once. Native cells are
	// nondeterministic by nature (real scheduling, real wire), so their
	// repetitions always measure distinct runs.
	if SimulatedBackend(c.backendName()) && c.Problem == "chem" && seed == 0 {
		reps = 1
	}
	out := c.identity()
	t0 := time.Now()
	rs := make([]report.Result, 0, reps)
	for rep := 0; rep < reps; rep++ {
		// The first repetition of every simulated cell is traced so its
		// critical path can be attributed (runOnce); only the per-category
		// seconds reach the result, and the next cell resets the collector.
		// Tracing is pure host-side appends for the simulator, so the
		// measured virtual time is byte-identical with and without it.
		// Native cells are NOT traced in sweeps: their wall clock is the
		// measurement, and tracing adds clock reads and stamp-exchange
		// locking to the hot loops. Their attribution is available on
		// demand through RunCellOnce/aiacbench -critpath KEY, where the run
		// exists to be explained rather than measured.
		var rtr *trace.Collector
		if rep == 0 && SimulatedBackend(c.backendName()) {
			rtr = tr
			rtr.Reset()
		}
		r, err := runIsolated(c, spec, rep, seed, timeout, rtr, cache)
		if err != nil {
			// Record what actually happened: how many repetitions
			// completed, and which one failed.
			out.Reps = rep
			out.Error = fmt.Sprintf("rep %d of %d: %v", rep+1, reps, err)
			out.HostSec = time.Since(t0).Seconds()
			return out
		}
		rs = append(rs, r)
	}
	out = aggregate(rs)
	out.HostSec = time.Since(t0).Seconds()
	return out
}

// aggregate folds a cell's repetitions into one Result. The median
// repetition (by simulated time) provides the representative timing and
// traffic measurement, with the fastest repetition kept alongside; the
// outcome fields fold across *every* repetition — convergence AND-folds,
// a stall in any repetition marks the cell stalled (OR), restarts sum,
// and reconvergence time and message drops take the worst repetition — so
// a bad non-median repetition can never hide behind a clean median. (The
// degradation table reads exactly these fields; taking them from the
// median alone used to report stalled=false on a cell whose non-median
// repetition deadlocked.)
func aggregate(rs []report.Result) report.Result {
	// Sort by a total order — simulated time first, then every other
	// measured column as a tie-break — so the aggregate is invariant under
	// the order repetitions completed in. Sorting by time alone left the
	// median pick among equal-time repetitions (common for deterministic
	// problems) dependent on input order.
	slices.SortFunc(rs, before)
	out := rs[(len(rs)-1)/2]
	out.Reps = len(rs)
	// The attribution rides on whichever repetition was traced (the
	// first), which after sorting is not necessarily the median: take it
	// from the repetition that has one.
	if i := slices.IndexFunc(rs, func(r report.Result) bool { return r.AttrTotalSec > 0 }); i >= 0 {
		out.AttrTotalSec = rs[i].AttrTotalSec
		out.AttrComputeSec = rs[i].AttrComputeSec
		out.AttrTransitSec = rs[i].AttrTransitSec
		out.AttrSyncWaitSec = rs[i].AttrSyncWaitSec
		out.AttrProtocolSec = rs[i].AttrProtocolSec
		out.AttrBlockedSendSec = rs[i].AttrBlockedSendSec
	}
	out.MinTimeSec = rs[0].TimeSec
	out.Converged, out.Stalled = true, false
	out.Restarts, out.ReconvergeSec, out.Dropped = 0, 0, 0
	var flags []string
	for _, r := range rs {
		out.Converged = out.Converged && r.Converged
		out.Stalled = out.Stalled || r.Stalled
		out.Restarts += r.Restarts
		out.ReconvergeSec = max(out.ReconvergeSec, r.ReconvergeSec)
		out.Dropped = max(out.Dropped, r.Dropped)
		if r.Flags != "" {
			flags = append(flags, strings.Split(r.Flags, ",")...)
		}
	}
	// Union the red flags across repetitions — like the stall fold, a
	// pathological non-median repetition must not hide behind a clean
	// median.
	slices.Sort(flags)
	out.Flags = strings.Join(slices.Compact(flags), ",")
	return out
}

// RunCellOnce executes a single repetition of one cell — the entry point
// for running a sweep cell verbatim outside a sweep (aiacbench KEY): tr,
// when non-nil, collects the execution flow and message deliveries of the
// run (a native cell's only for a single-solve problem). seed follows Options.Seed
// semantics and timeout follows Options.Timeout semantics — it is the
// wall-clock guard of a native cell (<= 0 means DefaultNativeTimeout) and
// is ignored by simulated cells. The returned Result reports that one
// repetition (Reps == 1).
func RunCellOnce(c Cell, spec Spec, rep int, seed int64, timeout time.Duration, tr *trace.Collector) (report.Result, error) {
	spec = spec.withDefaults()
	if !SimulatedBackend(c.backendName()) && tr != nil && c.Problem == "chem" {
		return report.Result{}, fmt.Errorf("tracing a native cell needs a single-solve problem (cell %s runs one solve per time step)", c.Key())
	}
	return runIsolated(c, spec, rep, seed, timeout, tr, nil)
}

// runIsolated is runOnce with a panic inside the repetition — in problem
// assembly, in a simulated process (des re-raises those in the scheduler,
// which runs on this goroutine), in the engine — turned into the
// repetition's error, panic text included: one bad cell becomes one
// errored row, and the sweep and its sidecar go on. The abandoned
// simulator is simply dropped, its parked processes with it (they are
// continuations it holds, nothing else). A native cell's rank panics on
// its own goroutine, out of reach from here: backend.Run contains it and
// returns it as the repetition's error.
func runIsolated(c Cell, spec Spec, rep int, seed int64, timeout time.Duration, tr *trace.Collector, cache *problems.Cache) (r report.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return runOnce(c, spec, rep, seed, timeout, tr, cache)
}

// wrapProblem, when set, replaces the problem a repetition is about to
// solve. Only tests set it, to inject faults no committed problem has.
var wrapProblem func(c Cell, prob aiac.Problem) aiac.Problem

// runOnce executes one repetition of a cell — in a fresh simulator for sim
// cells, natively over a fresh transport otherwise. cache, when non-nil,
// supplies memoized problem assembly (a nil cache builds fresh systems).
func runOnce(c Cell, spec Spec, rep int, seed int64, timeout time.Duration, tr *trace.Collector, cache *problems.Cache) (report.Result, error) {
	if !SimulatedBackend(c.backendName()) {
		return runNative(c, spec, rep, seed, timeout, tr, cache)
	}
	scen, err := scenario.ByName(c.scenarioName())
	if err != nil {
		return report.Result{}, err
	}
	sim := des.New()
	grid, err := NewGrid(sim, c.Grid, c.Procs)
	if err != nil {
		return report.Result{}, err
	}
	if seed != 0 {
		grid.Net.SetJitter(0.02, seed+int64(rep))
	}
	env, err := NewEnv(grid, c.Env, sparseExchange(c.Problem), tr)
	if err != nil {
		return report.Result{}, fmt.Errorf("deploying %s on %s: %w", c.Env, c.Grid, err)
	}
	rt := scenario.Deploy(scen, grid)

	// Residual timelines are always recorded: the acceptance contract is
	// that telemetry ON leaves the simulation byte-identical, and the
	// flags column must be present in every sweep. The engine records into
	// side arrays only, so the event sequence cannot change.
	resid := obs.NewResiduals(c.Procs)
	r := c.identity()
	r.Reps, r.Converged = 1, true
	nonFinite := false
	if c.Problem == "chem" {
		cp := spec.Chem
		p := chem.New(c.Size, c.Size)
		gp := gmres.Params{Tol: cp.GmresTol, Restart: 30}
		var run *problems.ChemRun
		if c.Mode == aiac.Sync && c.Env == "mpi" {
			// The paper's synchronous version of the non-linear
			// problem: classical global Newton with distributed GMRES
			// (§4.2 strategy 1).
			run = problems.RunChemSyncGlobal(grid, env, p, p.InitialState(),
				cp.StepS, cp.HorizonS, gp, cp.Eps, 50)
		} else {
			// Multisplitting Newton (§4.2 strategy 2), asynchronous or
			// lockstep according to the mode.
			run = problems.RunChem(grid, env, p, p.InitialState(),
				cp.StepS, cp.HorizonS, gp, aiac.Config{Mode: c.Mode, Eps: cp.Eps, Trace: tr, Dynamics: rt, Residuals: resid})
		}
		r.TimeSec = run.Elapsed.Seconds()
		for _, step := range run.Steps {
			if absorb(&r, step) {
				nonFinite = true
			}
		}
	} else {
		p, err := cellSolve(c, spec, rep, cache)
		if err != nil {
			return report.Result{}, err
		}
		var prob aiac.Problem = p
		if wrapProblem != nil {
			prob = wrapProblem(c, prob)
		}
		rpt := aiac.Run(grid, env, prob, aiac.Config{
			Mode: c.Mode, Eps: spec.Linear.Eps, MaxIters: spec.Linear.MaxIters,
			Trace: tr, Dynamics: rt, Residuals: resid,
		})
		r.TimeSec = rpt.Elapsed.Seconds()
		r.Residual = la.MaxNormDiff(rpt.X, p.XTrue)
		nonFinite = absorb(&r, rpt)
	}
	r.MinTimeSec = r.TimeSec
	r.Flags = redFlags(resid, r.Converged, nonFinite, cellEps(c, spec))
	// Attribute the run's critical path while the trace is still alive
	// (the global-Newton chem path records no compute spans and keeps a
	// zero attribution).
	if tr != nil {
		attribute(&r, tr, critpath.TotalFromSeconds(r.TimeSec))
	}
	st := grid.Net.StatsSnapshot()
	r.Messages = st.Messages
	r.Bytes = st.Bytes
	r.InterSite = st.InterSite
	r.Dropped = st.Dropped
	// Drop the parked processes (stalled exchanges, middleware threads
	// waiting on drained inboxes) with everything their continuations hold.
	sim.Shutdown()
	return r, nil
}

// DefaultNativeTimeout is the wall-clock guard of a native cell when
// Options.Timeout is unset.
const DefaultNativeTimeout = 2 * time.Minute

// runNative executes one repetition of a native cell: goroutine ranks over
// a fresh grid-shaped (and scenario-shaped) transport, measured in
// wall-clock time (internal/backend). The repetition perturbs the problem
// seed exactly like a simulated repetition; every committed problem runs,
// the chemical one as its per-time-step loop over fresh transports. tr,
// when non-nil, collects the solve's wall-clock execution flow
// (backend.Config.Trace) and the result carries its critical-path
// attribution — single-solve problems only: the chemical loop runs one
// solve per time step, each with its own clock epoch, so its cells stay
// unattributed.
func runNative(c Cell, spec Spec, rep int, seed int64, timeout time.Duration, tr *trace.Collector, cache *problems.Cache) (report.Result, error) {
	if !backend.NativeScenario(c.scenarioName()) {
		return report.Result{}, fmt.Errorf("scenario %q has no native analogue", c.Scenario)
	}
	if c.Problem == "chem" {
		tr = nil
	}
	if timeout <= 0 {
		timeout = DefaultNativeTimeout
	}
	stallAfter := 20 * time.Second
	if stallAfter > timeout/2 {
		stallAfter = timeout / 2
	}
	lossSeed := seed
	if lossSeed != 0 {
		lossSeed += int64(rep)
	}
	// Residual timelines for the red-flag detectors; native flags are
	// informational (wall-clock trajectories are not deterministic), so
	// Regressions never gates on them.
	resid := obs.NewResiduals(c.Procs)
	r := c.identity()
	r.Reps, r.Converged = 1, true
	nonFinite := false
	// One solve over a freshly shaped transport, folded into r; the chem
	// loop below runs it once per time step.
	solve := func(prob aiac.Problem, eps float64, maxIters int) (*backend.Report, error) {
		if wrapProblem != nil {
			prob = wrapProblem(c, prob)
		}
		tp, err := backend.NewTransport(c.backendName(), c.Procs)
		if err != nil {
			return nil, err
		}
		if err := backend.ApplyScenarioShaping(tp, c.Grid, c.scenarioName(), lossSeed); err != nil {
			return nil, err
		}
		rpt, err := backend.Run(prob, tp, backend.Config{
			Mode: c.Mode, Eps: eps, MaxIters: maxIters,
			Timeout: timeout, StallAfter: stallAfter,
			Residuals: resid, Trace: tr,
		})
		if err != nil {
			return nil, err
		}
		r.TimeSec += rpt.Wall.Seconds()
		r.WallSec += rpt.Wall.Seconds()
		r.Messages += rpt.Net.Messages
		r.Bytes += rpt.Net.Bytes
		r.Dropped += rpt.Net.Dropped
		if absorb(&r, &rpt.Report) {
			nonFinite = true
		}
		return rpt, nil
	}
	if c.Problem == "chem" {
		// The paper's per-time-step synchronisation, natively: one
		// backend solve per implicit-Euler step, each over a fresh
		// transport, the state threaded through. A stalled step ends the
		// run — the remaining steps could only iterate on a broken state.
		cp := spec.Chem
		p := chem.New(c.Size, c.Size)
		gp := gmres.Params{Tol: cp.GmresTol, Restart: 30}
		y := p.InitialState()
		for t := 0.0; t < cp.HorizonS-1e-9; t += cp.StepS {
			prob := problems.NewChemStep(p, y, cp.StepS, t+cp.StepS, gp)
			rpt, err := solve(prob, cp.Eps, 0)
			if err != nil {
				return report.Result{}, err
			}
			y = rpt.X
			if r.Stalled || nonFinite {
				break
			}
		}
	} else {
		p, err := cellSolve(c, spec, rep, cache)
		if err != nil {
			return report.Result{}, err
		}
		rpt, err := solve(p, spec.Linear.Eps, spec.Linear.MaxIters)
		if err != nil {
			return report.Result{}, err
		}
		r.Residual = la.MaxNormDiff(rpt.X, p.XTrue)
	}
	r.MinTimeSec = r.TimeSec
	r.Flags = redFlags(resid, r.Converged, nonFinite, cellEps(c, spec))
	// Native attribution runs against the trace's own horizon rather than
	// the reported wall time: the wall measurement starts at the first
	// post-barrier rank, while the trace clock starts at the solve's
	// epoch, so the horizon additionally covers the entry barrier and the
	// teardown tail. The category split is what matters; the small extra
	// total is protocol overhead by definition.
	if tr != nil {
		attribute(&r, tr, tr.Horizon())
	}
	return r, nil
}

// cellSolve builds the problem of a linear cell for repetition rep from
// the sweep's cache (nil builds a fresh system); any other problem is an
// error. The cell is solved to spec.Linear's Eps and MaxIters.
func cellSolve(c Cell, spec Spec, rep int, cache *problems.Cache) (*problems.Linear, error) {
	lp := spec.Linear
	if c.Problem != "linear" {
		return nil, fmt.Errorf("unknown problem %q", c.Problem)
	}
	if lp.Operator != "" && lp.Operator != "dia" {
		return nil, fmt.Errorf("operator %q: the linear system is the materialized DIA matrix (\"\" or \"dia\"); LinearParams.Operator goes in ROADMAP item 4(b)", lp.Operator)
	}
	return cache.Linear(c.Size, lp.Diags, lp.Rho, lp.Seed+int64(rep)), nil
}

// attribute writes the critical-path attribution of tr's run up to total
// into r's Attr* columns; a run with no compute spans is not attributable
// and keeps them zero.
func attribute(r *report.Result, tr *trace.Collector, total des.Time) {
	a, ok := critpath.Analyze(tr, total)
	if !ok {
		return
	}
	r.AttrTotalSec = a.Total.Seconds()
	r.AttrComputeSec = a.Seconds(critpath.CatCompute)
	r.AttrTransitSec = a.Seconds(critpath.CatTransit)
	r.AttrSyncWaitSec = a.Seconds(critpath.CatSyncWait)
	r.AttrProtocolSec = a.Seconds(critpath.CatProtocol)
	r.AttrBlockedSendSec = a.Seconds(critpath.CatBlockedSend)
}

// cellEps is the convergence threshold the cell's problem solves to — the
// scale the red-flag detectors judge residual trajectories against.
func cellEps(c Cell, spec Spec) float64 {
	if c.Problem == "chem" {
		return spec.Chem.Eps
	}
	return spec.Linear.Eps
}
