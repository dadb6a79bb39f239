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
	// crash-safe JSONL stream an interrupted sweep resumes from — and,
	// before it, each finished repetition of a cell that runs more than
	// one (report.RepetitionKey).
	Sidecar *report.SidecarWriter
	// Prior holds the rows of an earlier sweep's sidecar. A cell whose
	// content address — cell key, problem parameters, seeds, repetition
	// count, report schema, protocol constants, native timeout — matches
	// a valid prior row is not re-executed: the prior result is returned
	// with Resumed set. A cell without one runs only the repetitions that
	// have no prior repetition row.
	Prior []report.SidecarRow
	// Metrics, when non-nil, receives the sweep's telemetry (cells by
	// state, host time, traffic, protocol counters, red flags) as cells
	// complete — the registry behind aiacbench's /metrics endpoint.
	Metrics *obs.Registry
	// Progress, when non-nil, tracks every cell's lifecycle with its
	// makespan-schedule weight — the state behind aiacbench's /progress
	// endpoint and its weight-based ETA. Cells satisfied from Prior are
	// marked cached, so a resumed sweep's ETA covers only the work left.
	// A cell runs from its first repetition's start to its last's end, so
	// between repetition rounds more cells run than there are workers.
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
// wall-clock measurements are taken on an otherwise quiet host. Each phase
// runs as jobs of one cell and one repetition, rep-major: every cell's
// repetition 0, longest-expected-first (schedule.go), then every cell's
// repetition 1, and so on, with no barrier between the rounds. The job
// that ends a cell's last repetition folds the cell (aggregate), appends
// its row to Sidecar and delivers it, so results still stream cell by
// cell; a cell with more than one repetition also appends each finished
// repetition, under its content address plus the repetition index, and a
// resumed sweep runs only the repetitions it lacks. Cells whose content
// address matches a valid Prior row are not executed at all.
//
// All problems of one Run share a read-only assembly cache
// (problems.Cache), so the seven environments solving the same generated
// system build it once. Each phase declares how many of its jobs will
// read each system, and each job releases its use when it ends, whatever
// its outcome, so a system is freed with its round's last job and the
// sweep holds about one per worker however many repetitions it runs. A
// sweep with simulated and native cells of one size builds each system
// once per phase rather than keep every repetition's system alive from
// the first phase into the second.
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
	cache := newCache()
	prior := indexPrior(opt.Prior)

	results := make([]report.Result, len(cells))
	var mu sync.Mutex
	var persistErr error
	emit := func(r report.Result) {
		RecordResult(opt.Metrics, r)
		if opt.OnResult != nil {
			mu.Lock()
			opt.OnResult(r)
			mu.Unlock()
		}
	}
	persist := func(key string, r report.Result) {
		if opt.Sidecar == nil {
			return
		}
		if err := opt.Sidecar.Append(key, r); err != nil {
			mu.Lock()
			if persistErr == nil {
				persistErr = fmt.Errorf("%w: %v", ErrPersist, err)
			}
			mu.Unlock()
		}
	}

	// Register every cell with its schedule weight before anything runs,
	// so /progress shows the full sweep (and its remaining-weight ETA)
	// from the first scrape.
	for _, c := range cells {
		opt.Progress.Register(c.Key(), expectedCost(c))
	}

	// finish folds cell i once its last repetition has ended, and records
	// and delivers the row; resumed says no repetition ran in this sweep.
	keys := make([]string, len(cells))
	runs := make([]*cellRun, len(cells))
	finish := func(i int, resumed bool) {
		r := runs[i].result(cells[i])
		if resumed {
			opt.Progress.FinishedCached(cells[i].Key())
		} else {
			opt.Progress.Finished(cells[i].Key(), r.HostSec, r.Error != "")
		}
		persist(keys[i], r)
		r.Resumed = resumed
		results[i] = r
		emit(r)
	}

	// Resolve each cell, and each repetition of a multi-repetition cell,
	// against the prior rows before anything runs: reused cells are
	// answered (and observed) immediately, everything else is scheduled
	// into its phase.
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
		runs[i] = newCellRun(cellReps(c, reps, opt.Seed))
		if n := len(runs[i].rs); n > 1 {
			for rep := range n {
				if r, ok := prior[report.RepetitionKey(keys[i], rep)]; ok {
					runs[i].resume(rep, r)
				}
			}
		}
		switch {
		case runs[i].left == 0:
			// Every repetition was recorded, the cell's row was not:
			// fold it now, from the rows alone.
			finish(i, true)
		case SimulatedBackend(c.backendName()):
			simIdx = append(simIdx, i)
		default:
			nativeIdx = append(nativeIdx, i)
		}
	}

	type job struct{ cell, rep int }
	runJob := func(j job, tr *trace.Collector) {
		c, cr := cells[j.cell], runs[j.cell]
		if c.Problem == "linear" {
			defer cache.Release(linearKey(c, spec, j.rep))
		}
		opt.Progress.Started(c.Key())
		skip := cr.skips(j.rep)
		var r report.Result
		var err error
		if !skip {
			// The first repetition of every simulated cell is traced so
			// its critical path can be attributed (runOnce); only the
			// per-category seconds reach the result, and the next traced
			// repetition resets the collector. Tracing is pure host-side
			// appends for the simulator, so the measured virtual time is
			// byte-identical with and without it. Native cells are NOT
			// traced in sweeps: their wall clock is the measurement, and
			// tracing adds clock reads and stamp-exchange locking to the
			// hot loops. Their attribution is available on demand through
			// RunCellOnce/aiacbench -critpath KEY, where the run exists to
			// be explained rather than measured.
			var rtr *trace.Collector
			if j.rep == 0 && SimulatedBackend(c.backendName()) {
				rtr = tr
				rtr.Reset()
			}
			t0 := time.Now()
			r, err = runIsolated(c, spec, j.rep, opt.Seed, opt.Timeout, rtr, cache)
			r.HostSec = time.Since(t0).Seconds()
			if err == nil && len(cr.rs) > 1 {
				persist(report.RepetitionKey(keys[j.cell], j.rep), r)
			}
		}
		if cr.end(j.rep, skip, r, err) {
			finish(j.cell, false)
		}
	}

	runPhase := func(idx []int, workers int) {
		scheduleLongestFirst(idx, cells)
		var jobs []job
		for rep, more := 0, true; more; rep++ {
			more = false
			for _, i := range idx {
				if rep < len(runs[i].rs) {
					more = true
					if !runs[i].resumed[rep] {
						jobs = append(jobs, job{i, rep})
					}
				}
			}
		}
		if len(jobs) == 0 {
			return
		}
		for _, j := range jobs {
			if c := cells[j.cell]; c.Problem == "linear" {
				cache.Declare(linearKey(c, spec, j.rep), 1)
			}
		}
		feed := make(chan job)
		var wg sync.WaitGroup
		for range min(workers, len(jobs)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr := trace.New() // this worker's, reused job after job
				for j := range feed {
					runJob(j, tr)
				}
			}()
		}
		for _, j := range jobs {
			feed <- j
		}
		close(feed)
		wg.Wait()
	}

	runPhase(simIdx, SimWorkers(opt.Workers))
	runPhase(nativeIdx, 1)

	// Two independent failure classes can accompany a completed result
	// set, and both return it rather than discard hours of measurement:
	// a persistence failure (ErrPersist — the measurements are sound but
	// the sidecar is incomplete, so -resume coverage is lost) and a
	// shared-system mutation caught when the cache freed a system or by
	// its end-of-sweep verification (problems.ErrMutated — the
	// measurements themselves are suspect; the check at release is the
	// only guard for systems too large to re-checksum per retrieval). The
	// mutation error takes precedence.
	runErr := cache.Verify()
	if runErr == nil {
		runErr = persistErr
	}
	return &report.Set{Results: results}, runErr
}

// cellReps is the number of repetitions cell c runs when reps are asked
// for. Without a jitter seed, only the linear problem, whose matrix seed
// moves per repetition, has anything to perturb; the chemical simulation
// is then fully deterministic and extra reps would be bit-identical
// reruns — it runs once. Native cells are nondeterministic by nature
// (real scheduling, real wire), so their repetitions always measure
// distinct runs.
func cellReps(c Cell, reps int, seed int64) int {
	if SimulatedBackend(c.backendName()) && c.Problem == "chem" && seed == 0 {
		return 1
	}
	return reps
}

// cellRun collects one executing cell's repetitions. Its jobs may run on
// different workers at once, so skips, end and result hold mu; resume, and
// the reads of resumed, happen before any job starts.
type cellRun struct {
	mu      sync.Mutex
	rs      []report.Result // by repetition, as each ends or is resumed
	resumed []bool          // which repetitions were resumed from prior rows
	left    int             // repetitions not yet ended
	failed  int             // the lowest failed repetition, or -1
	err     error           // its error
	hostSec float64         // host seconds of its repetitions
}

func newCellRun(reps int) *cellRun {
	return &cellRun{rs: make([]report.Result, reps), resumed: make([]bool, reps), left: reps, failed: -1}
}

// resume fills repetition rep from its prior row.
func (cr *cellRun) resume(rep int, r report.Result) {
	cr.rs[rep], cr.resumed[rep] = r, true
	cr.hostSec += r.HostSec
	cr.left--
}

// skips reports whether repetition rep's job is to be skipped: an earlier
// repetition of the cell failed, so the row is an error whatever this one
// measures.
func (cr *cellRun) skips(rep int) bool {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.failed >= 0 && rep > cr.failed
}

// end records repetition rep's outcome and reports whether it was the
// cell's last to end.
func (cr *cellRun) end(rep int, skipped bool, r report.Result, err error) (last bool) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.hostSec += r.HostSec
	switch {
	case skipped:
	case err != nil:
		if cr.failed < 0 || rep < cr.failed {
			cr.failed, cr.err = rep, err
		}
	default:
		cr.rs[rep] = r
	}
	cr.left--
	return cr.left == 0
}

// result is the cell's row once every repetition has ended: the aggregate
// of its repetitions, or, when one failed, an errored row recording how
// many repetitions completed before the first failure and which one
// failed. HostSec sums the repetitions' host seconds, resumed ones
// included.
func (cr *cellRun) result(c Cell) report.Result {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	var out report.Result
	if cr.failed >= 0 {
		out = c.identity()
		out.Reps = cr.failed
		out.Error = fmt.Sprintf("rep %d of %d: %v", cr.failed+1, len(cr.rs), cr.err)
	} else {
		out = aggregate(cr.rs)
	}
	out.HostSec = cr.hostSec
	return out
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
// its residual timelines, FlagNonFinite when a solve ended on a
// non-finite residual, and FlagWrongAnswer when it converged to a wrong
// answer.
func redFlags(resid *obs.Residuals, converged, nonFinite, wrong bool, eps float64) string {
	flags := obs.Detect(resid, converged, obs.DetectorParams{Eps: eps})
	if nonFinite {
		flags = append(flags, obs.FlagNonFinite)
	}
	if wrong {
		flags = append(flags, obs.FlagWrongAnswer)
	}
	slices.Sort(flags)
	return strings.Join(flags, ",")
}

// wrongAnswer reports whether a converged linear repetition's answer is
// NaN or off the true solution by more than a converged iterate can be. A
// rank stops on a step below Eps; for an iteration that contracts by Rho
// the error behind such a step is at most Eps/(1-Rho) in lockstep, and of
// that order on stale asynchronous data, so the limit is a hundred times
// that (the bound benchmark/ verifies its rows against).
func wrongAnswer(r report.Result, lp LinearParams) bool {
	return r.Converged && !(r.Residual <= 100*lp.Eps/(1-lp.Rho))
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

// newCache makes a sweep's assembly cache. Only tests replace it, to read
// the cache's Stats after the sweep.
var newCache = problems.NewCache

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
	nonFinite, wrong := false, false
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
		wrong = wrongAnswer(r, spec.Linear)
	}
	r.MinTimeSec = r.TimeSec
	r.Flags = redFlags(resid, r.Converged, nonFinite, wrong, cellEps(c, spec))
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
	// Residual timelines for the red-flag detectors; the detectors' flags
	// are informational natively (wall-clock trajectories are not
	// deterministic), so Regressions gates only on wrong-answer, an
	// outcome.
	resid := obs.NewResiduals(c.Procs)
	r := c.identity()
	r.Reps, r.Converged = 1, true
	nonFinite, wrong := false, false
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
		wrong = wrongAnswer(r, spec.Linear)
	}
	r.MinTimeSec = r.TimeSec
	r.Flags = redFlags(resid, r.Converged, nonFinite, wrong, cellEps(c, spec))
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
	k := linearKey(c, spec, rep)
	return cache.Linear(k.N, k.Diags, k.Rho, k.Seed), nil
}

// linearKey names the system a linear cell's repetition rep solves.
func linearKey(c Cell, spec Spec, rep int) problems.LinearKey {
	lp := spec.Linear
	return problems.LinearKey{N: c.Size, Diags: lp.Diags, Rho: lp.Rho, Seed: lp.Seed + int64(rep)}
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
