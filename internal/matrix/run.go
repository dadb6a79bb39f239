package matrix

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
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
	"aiac/internal/protocol"
	"aiac/internal/report"
	"aiac/internal/scenario"
	"aiac/internal/trace"
)

// Options tunes a sweep.
type Options struct {
	// Workers bounds the number of cells simulated concurrently.
	// Defaults to GOMAXPROCS, and values above the host's available
	// parallelism are capped to it: a simulated cell is a busy CPU-bound
	// event loop, so oversubscribing the sim phase cannot add progress —
	// it only multiplies the live heap the garbage collector must scan
	// (measurably so once the longest-first schedule fronts the giant
	// cells). Results are independent of the value: each cell owns its
	// simulator, and the result set is ordered by the spec's enumeration
	// order, not by completion order.
	Workers int
	// NativeWorkers bounds the number of native (chan/tcp backend) cells
	// executed concurrently. Native cells measure wall-clock time, so
	// they run in their own phase after every simulated cell has
	// finished, and default to one at a time: a second concurrent native
	// cell would oversubscribe the host and corrupt both measurements.
	NativeWorkers int
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
	// Retries re-executes a cell whose attempt ended in an error (not a
	// stall or non-convergence — those are measurements) up to this many
	// extra times; the accepted result records the attempt count in
	// Result.Attempts when it took more than one.
	Retries int
	// Sidecar, when non-nil, receives every executed cell's result
	// (tagged with its content address) the moment it completes — the
	// crash-safe JSONL stream an interrupted sweep resumes from.
	Sidecar *report.SidecarWriter
	// Prior holds the rows of an earlier sweep's sidecar. A cell whose
	// content address — cell key, problem parameters, seeds, repetition
	// count, report schema, protocol constants, native timeout — matches
	// a valid prior row is not re-executed: the prior result is returned
	// with Resumed set. Prior rows of matching cells whose address
	// changed still refine the longest-expected-first schedule with their
	// measured host time.
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

// ErrPersist marks a sweep whose measurements completed but whose sidecar
// could not record every row: the returned Set is sound, only -resume
// coverage is incomplete. Distinguished (errors.Is) from
// problems.ErrMutated, which taints the measurements themselves.
var ErrPersist = errors.New("matrix: appending to sidecar failed")

// Run sweeps every cell of the spec and returns the collected results in
// enumeration order. Simulated cells run first across the worker pool;
// native cells follow in their own phase with NativeWorkers-bounded
// (default: serial) execution, so their wall-clock measurements are taken
// on an otherwise quiet host. Within each phase cells are scheduled
// longest-expected-first (schedule.go) so the pool never tails on one
// giant cell; cells whose content address matches a valid Prior row are
// not executed at all, and every executed result streams to Sidecar as it
// completes. All problems of one Run share a read-only assembly cache
// (problems.Cache), so the seven environments solving the same generated
// system build it once.
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
		recordResult(opt.Metrics, r)
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
		opt.Progress.Register(c.Key(), expectedCost(c, prior))
	}

	// Resolve each cell against the prior rows before anything runs:
	// reused cells are answered (and observed) immediately, everything
	// else is scheduled into its phase.
	keys := make([]string, len(cells))
	var simIdx, nativeIdx []int
	for i, c := range cells {
		keys[i] = cellCacheKey(c, spec, reps, opt.Seed, opt.Timeout)
		if r, ok := prior.lookup(keys[i]); ok {
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
		if workers <= 0 {
			workers = 1
		}
		if workers > len(idx) {
			workers = len(idx)
		}
		scheduleLongestFirst(idx, cells, prior)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					opt.Progress.Started(cells[i].Key())
					r := runCell(cells[i], spec, reps, opt.Seed, opt.Timeout, opt.Retries, cache)
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

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Cap at the hardware parallelism (see Options.Workers).
	if maxp := runtime.GOMAXPROCS(0); workers > maxp {
		workers = maxp
	}
	runPhase(simIdx, workers)
	nativeWorkers := opt.NativeWorkers
	if nativeWorkers <= 0 {
		nativeWorkers = 1
	}
	runPhase(nativeIdx, nativeWorkers)

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

// measurement is one repetition's outcome.
type measurement struct {
	timeSec       float64
	iters         int
	messages      uint64
	bytes         uint64
	interSite     uint64
	dropped       uint64
	residual      float64
	converged     bool
	stalled       bool
	reconvergeSec float64
	restarts      int
	wallSec       float64

	// Protocol observability (internal/protocol): counters plus the
	// resolved constants that produced the run.
	heartbeats   int
	rebroadcasts int
	reconfirms   int
	proto        protocol.Params

	// flags holds the repetition's convergence red-flag verdicts
	// (internal/obs detectors), comma-separated and sorted.
	flags string

	// Critical-path attribution of the repetition's trace
	// (internal/obs/critpath), zero when the repetition was not traced.
	// Deliberately excluded from less(): attribution exists only for the
	// traced repetition, so letting it order measurements would make the
	// median pick depend on which repetition carried the trace.
	attr attribution
}

// attribution is the per-category split of one traced repetition's
// simulated time, in seconds. totalSec == 0 means "not attributed".
type attribution struct {
	totalSec       float64
	computeSec     float64
	transitSec     float64
	syncWaitSec    float64
	protocolSec    float64
	blockedSendSec float64
}

// less orders measurements lexicographically over every field — a total
// order (up to full equality), so sorting is deterministic whatever the
// input permutation.
func (m measurement) less(o measurement) bool {
	if m.timeSec != o.timeSec {
		return m.timeSec < o.timeSec
	}
	if m.iters != o.iters {
		return m.iters < o.iters
	}
	if m.messages != o.messages {
		return m.messages < o.messages
	}
	if m.bytes != o.bytes {
		return m.bytes < o.bytes
	}
	if m.interSite != o.interSite {
		return m.interSite < o.interSite
	}
	if m.dropped != o.dropped {
		return m.dropped < o.dropped
	}
	if m.residual != o.residual {
		return m.residual < o.residual
	}
	if m.converged != o.converged {
		return !m.converged
	}
	if m.stalled != o.stalled {
		return !m.stalled
	}
	if m.reconvergeSec != o.reconvergeSec {
		return m.reconvergeSec < o.reconvergeSec
	}
	if m.restarts != o.restarts {
		return m.restarts < o.restarts
	}
	if m.wallSec != o.wallSec {
		return m.wallSec < o.wallSec
	}
	if m.heartbeats != o.heartbeats {
		return m.heartbeats < o.heartbeats
	}
	if m.rebroadcasts != o.rebroadcasts {
		return m.rebroadcasts < o.rebroadcasts
	}
	if m.reconfirms != o.reconfirms {
		return m.reconfirms < o.reconfirms
	}
	return m.flags < o.flags
}

// result converts the repetition into a single-rep report.Result for c.
func (m measurement) result(c Cell) report.Result {
	return report.Result{
		Env: c.Env, Mode: c.Mode.String(), Grid: c.Grid, Problem: c.Problem,
		Procs: c.Procs, Size: c.Size, Scenario: c.scenarioName(), Backend: c.backendName(), Reps: 1,
		TimeSec: m.timeSec, MinTimeSec: m.timeSec, Iters: m.iters,
		Messages: m.messages, Bytes: m.bytes, InterSite: m.interSite,
		Dropped: m.dropped, Residual: m.residual, Converged: m.converged,
		Stalled: m.stalled, ReconvergeSec: m.reconvergeSec, Restarts: m.restarts,
		WallSec: m.wallSec, Flags: m.flags,
		Heartbeats: m.heartbeats, StopRebroadcasts: m.rebroadcasts, ReconfirmRounds: m.reconfirms,
		GraceSec: m.proto.Grace.Seconds(), HeartbeatSec: m.proto.Heartbeat.Seconds(),
		PersistIters: m.proto.PersistIters,
		AttrTotalSec: m.attr.totalSec, AttrComputeSec: m.attr.computeSec,
		AttrTransitSec: m.attr.transitSec, AttrSyncWaitSec: m.attr.syncWaitSec,
		AttrProtocolSec: m.attr.protocolSec, AttrBlockedSendSec: m.attr.blockedSendSec,
	}
}

// protocolObservability folds an engine report's protocol counters and
// constants into the measurement.
func (m *measurement) fromEngine(rpt *aiac.Report) {
	m.heartbeats += rpt.Heartbeats
	m.rebroadcasts += rpt.StopRebroadcasts
	m.reconfirms += rpt.ReconfirmRounds
	m.proto = rpt.Protocol
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

// runCell executes one cell, retrying attempts that end in an error (a
// deploy failure, not a stall or non-convergence — those are valid
// measurements) up to retries extra times. The accepted result records how
// many attempts it took when more than one.
func runCell(c Cell, spec Spec, reps int, seed int64, timeout time.Duration, retries int, cache *problems.Cache) report.Result {
	var out report.Result
	for attempt := 1; ; attempt++ {
		out = runCellAttempt(c, spec, reps, seed, timeout, cache)
		if attempt > 1 {
			out.Attempts = attempt
		}
		if out.Error == "" || attempt > retries {
			return out
		}
	}
}

// runCellAttempt executes one cell's repetitions and aggregates them.
func runCellAttempt(c Cell, spec Spec, reps int, seed int64, timeout time.Duration, cache *problems.Cache) report.Result {
	// Without a jitter seed, only the problems with a generator-seed axis
	// (linear, gmres, newton) have anything to perturb per repetition; the
	// chemical simulation is then fully deterministic and extra reps would
	// be bit-identical reruns — run it once. Native cells are
	// nondeterministic by nature (real scheduling, real wire), so their
	// repetitions always measure distinct runs.
	if SimulatedBackend(c.backendName()) && c.Problem == "chem" && seed == 0 {
		reps = 1
	}
	out := report.Result{
		Env: c.Env, Mode: c.Mode.String(), Grid: c.Grid, Problem: c.Problem,
		Procs: c.Procs, Size: c.Size, Scenario: c.scenarioName(), Backend: c.backendName(),
	}
	t0 := time.Now()
	ms := make([]measurement, 0, reps)
	for rep := 0; rep < reps; rep++ {
		// The first repetition of every simulated cell is traced so its
		// critical path can be attributed (runOnce); the collector itself
		// is transient — only the per-category seconds reach the result.
		// Tracing is pure host-side appends for the simulator, so the
		// measured virtual time is byte-identical with and without it.
		// Native cells are NOT traced in sweeps: their wall clock is the
		// measurement, and tracing adds clock reads and stamp-exchange
		// locking to the hot loops. Their attribution is available on
		// demand through RunCellOnce/aiactrace -critpath, where the run
		// exists to be explained rather than measured.
		var tr *trace.Collector
		if rep == 0 && SimulatedBackend(c.backendName()) {
			tr = trace.New()
		}
		m, err := runIsolated(c, spec, rep, seed, timeout, tr, cache)
		if err != nil {
			// Record what actually happened: how many repetitions
			// completed, and which one failed.
			out.Reps = rep
			out.Error = fmt.Sprintf("rep %d of %d: %v", rep+1, reps, err)
			out.HostSec = time.Since(t0).Seconds()
			return out
		}
		ms = append(ms, m)
	}
	out = aggregate(c, ms)
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
func aggregate(c Cell, ms []measurement) report.Result {
	// Sort by a total order — simulated time first, then every other
	// measurement field as a tie-break — so the aggregate is invariant
	// under the order repetitions completed in. Sorting by time alone left
	// the median pick among equal-time repetitions (common for
	// deterministic problems) dependent on input order.
	sort.Slice(ms, func(i, j int) bool { return ms[i].less(ms[j]) })
	out := ms[(len(ms)-1)/2].result(c)
	out.Reps = len(ms)
	// The attribution rides on whichever repetition was traced (the
	// first), which after sorting is not necessarily the median: take it
	// from the measurement that has one.
	for _, m := range ms {
		if m.attr.totalSec > 0 {
			out.AttrTotalSec = m.attr.totalSec
			out.AttrComputeSec = m.attr.computeSec
			out.AttrTransitSec = m.attr.transitSec
			out.AttrSyncWaitSec = m.attr.syncWaitSec
			out.AttrProtocolSec = m.attr.protocolSec
			out.AttrBlockedSendSec = m.attr.blockedSendSec
			break
		}
	}
	out.MinTimeSec = ms[0].timeSec
	out.Converged, out.Stalled = true, false
	out.Restarts, out.ReconvergeSec, out.Dropped = 0, 0, 0
	flags := make(map[string]bool)
	for _, m := range ms {
		out.Converged = out.Converged && m.converged
		out.Stalled = out.Stalled || m.stalled
		out.Restarts += m.restarts
		if m.reconvergeSec > out.ReconvergeSec {
			out.ReconvergeSec = m.reconvergeSec
		}
		if m.dropped > out.Dropped {
			out.Dropped = m.dropped
		}
		for _, f := range strings.Split(m.flags, ",") {
			if f != "" {
				flags[f] = true
			}
		}
	}
	// Union the red flags across repetitions — like the stall fold, a
	// pathological non-median repetition must not hide behind a clean
	// median.
	if len(flags) > 0 {
		fs := make([]string, 0, len(flags))
		for f := range flags {
			fs = append(fs, f)
		}
		sort.Strings(fs)
		out.Flags = strings.Join(fs, ",")
	}
	return out
}

// RunCellOnce executes a single repetition of one cell — the entry point
// for running a sweep cell verbatim outside a sweep (cmd/aiactrace,
// cmd/aiacrun): tr, when non-nil, collects the execution flow and message
// deliveries of the run (simulated cells only). seed follows Options.Seed
// semantics and timeout follows Options.Timeout semantics — it is the
// wall-clock guard of a native cell (<= 0 means DefaultNativeTimeout) and
// is ignored by simulated cells. The returned Result reports that one
// repetition (Reps == 1).
func RunCellOnce(c Cell, spec Spec, rep int, seed int64, timeout time.Duration, tr *trace.Collector) (report.Result, error) {
	spec = spec.withDefaults()
	if !SimulatedBackend(c.backendName()) && tr != nil && c.Problem == "chem" {
		return report.Result{}, fmt.Errorf("tracing a native cell needs a single-solve problem (cell %s runs one solve per time step)", c.Key())
	}
	m, err := runIsolated(c, spec, rep, seed, timeout, tr, nil)
	if err != nil {
		return report.Result{}, err
	}
	return m.result(c), nil
}

// runIsolated is runOnce with a panic inside the repetition — in problem
// assembly, in a simulated process (des re-raises those in the scheduler,
// which runs on this goroutine), in the engine — turned into the
// repetition's error, panic text included: one bad cell becomes one
// errored row, and the sweep and its sidecar go on. The abandoned
// simulator is simply dropped, its parked processes with it (they are
// continuations it holds, nothing else). A panic on another goroutine (a
// native cell's rank) is out of reach from here.
func runIsolated(c Cell, spec Spec, rep int, seed int64, timeout time.Duration, tr *trace.Collector, cache *problems.Cache) (m measurement, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return runOnce(c, spec, rep, seed, timeout, tr, cache)
}

// wrapProblem, when set, replaces the problem a simulated repetition is
// about to solve. Only tests set it, to inject faults no committed problem
// has.
var wrapProblem func(c Cell, prob aiac.Problem) aiac.Problem

// runOnce executes one repetition of a cell — in a fresh simulator for sim
// cells, natively over a fresh transport otherwise. cache, when non-nil,
// supplies memoized problem assembly (a nil cache builds fresh systems).
func runOnce(c Cell, spec Spec, rep int, seed int64, timeout time.Duration, tr *trace.Collector, cache *problems.Cache) (measurement, error) {
	if !SimulatedBackend(c.backendName()) {
		return runNative(c, spec, rep, seed, timeout, tr, cache)
	}
	scen, err := scenario.ByName(c.scenarioName())
	if err != nil {
		return measurement{}, err
	}
	sim := des.New()
	grid, err := NewGrid(sim, c.Grid, c.Procs)
	if err != nil {
		return measurement{}, err
	}
	if seed != 0 {
		grid.Net.SetJitter(0.02, seed+int64(rep))
	}
	env, err := NewEnv(grid, c.Env, sparseExchange(c.Problem), tr)
	if err != nil {
		return measurement{}, fmt.Errorf("deploying %s on %s: %w", c.Env, c.Grid, err)
	}
	rt := scenario.Deploy(scen, grid)

	// Residual timelines are always recorded: the acceptance contract is
	// that telemetry ON leaves the simulation byte-identical, and the
	// flags column must be present in every sweep. The engine records into
	// side arrays only, so the event sequence cannot change.
	resid := obs.NewResiduals(c.Procs)
	var m measurement
	linearLike := func(prob aiac.Problem, xtrue []float64, eps float64, maxIters int) {
		if wrapProblem != nil {
			prob = wrapProblem(c, prob)
		}
		rpt := aiac.Run(grid, env, prob, aiac.Config{
			Mode: c.Mode, Eps: eps, MaxIters: maxIters,
			Trace: tr, Dynamics: rt, Residuals: resid,
		})
		m.timeSec = rpt.Elapsed.Seconds()
		m.iters = rpt.TotalIters()
		m.residual = la.MaxNormDiff(rpt.X, xtrue)
		m.converged = rpt.Reason == aiac.StopConverged && rpt.TaintedRestarts == 0
		m.stalled = rpt.Stalled
		m.reconvergeSec = rpt.Reconverge.Seconds()
		m.restarts = rpt.Restarts
		m.fromEngine(rpt)
	}
	switch c.Problem {
	case "linear":
		lp := spec.Linear
		prob := cache.LinearOp(lp.Operator, c.Size, lp.Diags, lp.Rho, lp.Seed+int64(rep))
		linearLike(prob, prob.XTrue, lp.Eps, lp.MaxIters)
	case "gmres":
		lp := spec.Linear
		prob := cache.LinearGMRESOp(lp.Operator, c.Size, lp.Diags, lp.Rho, lp.Seed+int64(rep))
		linearLike(prob, prob.XTrue, lp.Eps, lp.MaxIters)
	case "newton":
		np := spec.Newton
		prob := cache.Reaction(c.Size, np.C, np.Seed+int64(rep))
		linearLike(prob, prob.XTrue, np.Eps, np.MaxIters)
	case "chem":
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
		m.timeSec = run.Elapsed.Seconds()
		m.iters = run.TotalIters()
		m.converged = run.AllConverged()
		for _, step := range run.Steps {
			m.converged = m.converged && step.TaintedRestarts == 0
			m.stalled = m.stalled || step.Stalled
			m.restarts += step.Restarts
			if s := step.Reconverge.Seconds(); s > m.reconvergeSec {
				m.reconvergeSec = s
			}
			m.fromEngine(step)
		}
	default:
		return measurement{}, fmt.Errorf("unknown problem %q", c.Problem)
	}
	m.flags = strings.Join(obs.Detect(resid, m.converged, obs.DetectorParams{Eps: cellEps(c, spec)}), ",")
	// Attribute the run's critical path while the trace is still alive.
	// Cells that record no compute spans (the global-Newton chem path) are
	// not attributable and keep a zero attribution.
	if tr != nil {
		if a, ok := critpath.Analyze(tr, critpath.TotalFromSeconds(m.timeSec)); ok {
			m.attr = attribution{
				totalSec:       a.Total.Seconds(),
				computeSec:     a.Seconds(critpath.CatCompute),
				transitSec:     a.Seconds(critpath.CatTransit),
				syncWaitSec:    a.Seconds(critpath.CatSyncWait),
				protocolSec:    a.Seconds(critpath.CatProtocol),
				blockedSendSec: a.Seconds(critpath.CatBlockedSend),
			}
		}
	}
	st := grid.Net.StatsSnapshot()
	m.messages = st.Messages
	m.bytes = st.Bytes
	m.interSite = st.InterSite
	m.dropped = st.Dropped
	// Drop the parked processes (stalled exchanges, middleware threads
	// waiting on drained inboxes) with everything their continuations hold.
	sim.Shutdown()
	return m, nil
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
// (backend.Config.Trace) and the measurement carries its critical-path
// attribution — single-solve problems only: the chemical loop runs one
// solve per time step, each with its own clock epoch, so its cells stay
// unattributed.
func runNative(c Cell, spec Spec, rep int, seed int64, timeout time.Duration, tr *trace.Collector, cache *problems.Cache) (measurement, error) {
	if !backend.NativeScenario(c.scenarioName()) {
		return measurement{}, fmt.Errorf("scenario %q has no native analogue", c.Scenario)
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
	// One solve over a freshly shaped transport; the chem loop below runs
	// it once per time step.
	solve := func(prob aiac.Problem, eps float64, maxIters int) (*backend.Report, error) {
		tp, err := backend.NewTransport(c.backendName(), c.Procs)
		if err != nil {
			return nil, err
		}
		if err := backend.ApplyScenarioShaping(tp, c.Grid, c.scenarioName(), lossSeed); err != nil {
			return nil, err
		}
		return backend.Run(prob, tp, backend.Config{
			Mode: c.Mode, Eps: eps, MaxIters: maxIters,
			Timeout: timeout, StallAfter: stallAfter,
			Residuals: resid, Trace: tr,
		})
	}
	fold := func(m *measurement, rpt *backend.Report, xtrue []float64) {
		m.timeSec += rpt.Wall.Seconds()
		m.wallSec += rpt.Wall.Seconds()
		m.iters += rpt.TotalIters()
		if xtrue != nil {
			m.residual = la.MaxNormDiff(rpt.X, xtrue)
		}
		m.converged = m.converged && rpt.Converged()
		m.stalled = m.stalled || rpt.Reason == aiac.StopStalled
		m.messages += rpt.Net.Messages
		m.bytes += rpt.Net.Bytes
		m.dropped += rpt.Net.Dropped
		m.heartbeats += rpt.Heartbeats
		m.rebroadcasts += rpt.StopRebroadcasts
		m.reconfirms += rpt.ReconfirmRounds
		m.proto = rpt.Protocol
	}
	m := measurement{converged: true}
	switch c.Problem {
	case "linear":
		lp := spec.Linear
		prob := cache.LinearOp(lp.Operator, c.Size, lp.Diags, lp.Rho, lp.Seed+int64(rep))
		rpt, err := solve(prob, lp.Eps, lp.MaxIters)
		if err != nil {
			return measurement{}, err
		}
		fold(&m, rpt, prob.XTrue)
	case "gmres":
		lp := spec.Linear
		prob := cache.LinearGMRESOp(lp.Operator, c.Size, lp.Diags, lp.Rho, lp.Seed+int64(rep))
		rpt, err := solve(prob, lp.Eps, lp.MaxIters)
		if err != nil {
			return measurement{}, err
		}
		fold(&m, rpt, prob.XTrue)
	case "newton":
		np := spec.Newton
		prob := cache.Reaction(c.Size, np.C, np.Seed+int64(rep))
		rpt, err := solve(prob, np.Eps, np.MaxIters)
		if err != nil {
			return measurement{}, err
		}
		fold(&m, rpt, prob.XTrue)
	case "chem":
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
				return measurement{}, err
			}
			fold(&m, rpt, nil)
			y = rpt.X
			if m.stalled {
				break
			}
		}
	default:
		return measurement{}, fmt.Errorf("unknown problem %q", c.Problem)
	}
	m.flags = strings.Join(obs.Detect(resid, m.converged, obs.DetectorParams{Eps: cellEps(c, spec)}), ",")
	// Native attribution runs against the trace's own horizon rather than
	// the reported wall time: the wall measurement starts at the first
	// post-barrier rank, while the trace clock starts at the solve's
	// epoch, so the horizon additionally covers the entry barrier and the
	// teardown tail. The category split is what matters; the small extra
	// total is protocol overhead by definition.
	if tr != nil {
		if a, ok := critpath.Analyze(tr, tr.Horizon()); ok {
			m.attr = attribution{
				totalSec:       a.Total.Seconds(),
				computeSec:     a.Seconds(critpath.CatCompute),
				transitSec:     a.Seconds(critpath.CatTransit),
				syncWaitSec:    a.Seconds(critpath.CatSyncWait),
				protocolSec:    a.Seconds(critpath.CatProtocol),
				blockedSendSec: a.Seconds(critpath.CatBlockedSend),
			}
		}
	}
	return m, nil
}

// cellEps is the convergence threshold the cell's problem solves to — the
// scale the red-flag detectors judge residual trajectories against.
func cellEps(c Cell, spec Spec) float64 {
	switch c.Problem {
	case "newton":
		return spec.Newton.Eps
	case "chem":
		return spec.Chem.Eps
	default:
		return spec.Linear.Eps
	}
}
