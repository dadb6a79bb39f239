package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/backend"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/la"
	"aiac/internal/marcel"
	"aiac/internal/matrix"
	"aiac/internal/netsim"
	"aiac/internal/obs"
	"aiac/internal/obs/critpath"
	"aiac/internal/problems"
	"aiac/internal/protocol"
	"aiac/internal/report"
	"aiac/internal/scenario"
	"aiac/internal/simfast"
	"aiac/internal/sparse"
	"aiac/internal/trace"
	"aiac/internal/transport"
)

// The traced run: per-layer numbers taken from outside, by timing calls
// into each layer's public functions. It has three parts. One untraced
// matrix.Run pass gives the runtime's counters and the sweep's own
// overhead. The workload's reference cell is then staged exactly as
// matrix.runOnce wires it, with a span at each layer boundary, next to the
// same cell run through matrix.RunCellOnce with the spans off — the two
// must produce the same virtual result, and their time difference is the
// tracing overhead. Last, each layer's unit cost is measured in isolation
// and multiplied by the count the staged cell made visible, which gives
// the layer's share of the cell's event loop; what the shares leave over
// is reported as unattributed, never hidden.

// countingProblem counts the Update calls an engine makes: an asynchronous
// rank with nothing new to fold skips the kernel, so iterations alone do
// not say how often the kernel ran.
type countingProblem struct {
	aiac.Problem
	updates int
}

func (c *countingProblem) Update(rank int, bounds []int, x []float64) (float64, float64) {
	c.updates++
	return c.Problem.Update(rank, bounds, x)
}

// timeAllocs runs f and returns its wall time and heap allocation count.
func timeAllocs(f func()) (sec float64, mallocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	sec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return sec, float64(m1.Mallocs - m0.Mallocs)
}

// perOp times n calls of f; ns and heap allocations per call.
func perOp(n int, f func()) (ns, allocs float64) {
	sec, mallocs := timeAllocs(func() {
		for i := 0; i < n; i++ {
			f()
		}
	})
	return sec * 1e9 / float64(n), mallocs / float64(n)
}

// simStage is what one staged simulated cell made visible from outside.
type simStage struct {
	result  report.Result
	rpt     *aiac.Report
	stats   netsim.Stats
	events  uint64
	updates int
	tr      *trace.Collector
}

// stageSim runs repetition 0 of a simulated linear cell the way
// matrix.runOnce wires a sim-fast cell, one span per layer boundary. tr is
// the engine's own trace collector: non-nil stages the traced repetition a
// sweep runs first (critical-path attribution included), nil the untraced
// one.
func stageSim(rec *recorder, c matrix.Cell, spec matrix.Spec, seed int64, tr *trace.Collector) (st simStage, err error) {
	scen, err := scenario.ByName(c.Scenario)
	if err != nil {
		return st, err
	}
	lp := spec.Linear
	st.tr = tr
	rec.do("cell", func() {
		var prob *problems.Linear
		rec.do("problems.assemble", func() {
			prob = problems.NewCache().LinearOp(lp.Operator, c.Size, lp.Diags, lp.Rho, lp.Seed)
		})
		var sim *des.Simulator
		var grid *cluster.Grid
		var env aiac.Env
		rec.do("cluster.deploy", func() {
			sim = des.New()
			if grid, err = matrix.NewGrid(sim, c.Grid, c.Procs); err != nil {
				return
			}
			if seed != 0 {
				grid.Net.SetJitter(0.02, seed)
			}
			env, err = matrix.NewEnv(grid, c.Env, true, tr, envcore.WithEventLoop())
		})
		if err != nil {
			return
		}
		var rt *scenario.Runtime
		rec.do("scenario.deploy", func() { rt = scenario.DeployEventLoop(scen, grid) })

		resid := obs.NewResiduals(c.Procs)
		counted := &countingProblem{Problem: prob}
		rec.do("simfast.run", func() {
			st.rpt = simfast.Run(grid, env, counted, aiac.Config{
				Mode: c.Mode, Eps: lp.Eps, MaxIters: lp.MaxIters,
				Trace: tr, Dynamics: rt, Residuals: resid,
			})
		})
		rpt := st.rpt
		st.updates = counted.updates
		r := report.Result{
			Env: c.Env, Mode: c.Mode.String(), Grid: c.Grid, Problem: c.Problem,
			Procs: c.Procs, Size: c.Size, Scenario: c.Scenario, Backend: c.Backend, Reps: 1,
			TimeSec: rpt.Elapsed.Seconds(), MinTimeSec: rpt.Elapsed.Seconds(),
			Iters:         rpt.TotalIters(),
			Residual:      la.MaxNormDiff(rpt.X, prob.XTrue),
			Converged:     rpt.Reason == aiac.StopConverged && rpt.TaintedRestarts == 0,
			Stalled:       rpt.Stalled,
			ReconvergeSec: rpt.Reconverge.Seconds(),
			Restarts:      rpt.Restarts,
			Heartbeats:    rpt.Heartbeats, StopRebroadcasts: rpt.StopRebroadcasts, ReconfirmRounds: rpt.ReconfirmRounds,
			GraceSec: rpt.Protocol.Grace.Seconds(), HeartbeatSec: rpt.Protocol.Heartbeat.Seconds(),
			PersistIters: rpt.Protocol.PersistIters,
		}
		rec.do("obs.detect", func() {
			r.Flags = strings.Join(obs.Detect(resid, r.Converged, obs.DetectorParams{Eps: lp.Eps}), ",")
		})
		if tr != nil {
			rec.do("critpath.analyze", func() {
				a, ok := critpath.Analyze(tr, critpath.TotalFromSeconds(r.TimeSec))
				if !ok {
					return
				}
				r.AttrTotalSec = a.Total.Seconds()
				r.AttrComputeSec = a.Seconds(critpath.CatCompute)
				r.AttrTransitSec = a.Seconds(critpath.CatTransit)
				r.AttrSyncWaitSec = a.Seconds(critpath.CatSyncWait)
				r.AttrProtocolSec = a.Seconds(critpath.CatProtocol)
				r.AttrBlockedSendSec = a.Seconds(critpath.CatBlockedSend)
			})
		}
		st.stats = grid.Net.StatsSnapshot()
		r.Messages, r.Bytes = st.stats.Messages, st.stats.Bytes
		r.InterSite, r.Dropped = st.stats.InterSite, st.stats.Dropped
		st.events = sim.Events()
		sim.Shutdown()
		st.result = r
	})
	return st, err
}

// spannedTransport puts a span around Start, which backend.Run calls on
// the staging goroutine.
type spannedTransport struct {
	transport.Transport
	rec *recorder
}

func (t spannedTransport) Start() (err error) {
	t.rec.do("transport.start", func() { err = t.Transport.Start() })
	return err
}

// stageNative runs repetition 0 of a native linear cell the way
// matrix.runNative wires it (untraced, as sweeps run native cells).
func stageNative(rec *recorder, c matrix.Cell, spec matrix.Spec, seed int64) (rpt *backend.Report, r report.Result, err error) {
	lp := spec.Linear
	rec.do("cell", func() {
		var prob *problems.Linear
		rec.do("problems.assemble", func() {
			prob = problems.NewCache().LinearOp(lp.Operator, c.Size, lp.Diags, lp.Rho, lp.Seed)
		})
		var tp transport.Transport
		if tp, err = backend.NewTransport(c.Backend, c.Procs); err != nil {
			return
		}
		if err = backend.ApplyScenarioShaping(tp, c.Grid, c.Scenario, seed); err != nil {
			return
		}
		resid := obs.NewResiduals(c.Procs)
		rec.do("backend.run", func() {
			rpt, err = backend.Run(prob, spannedTransport{tp, rec}, backend.Config{
				Mode: c.Mode, Eps: lp.Eps, MaxIters: lp.MaxIters,
				Timeout: matrix.DefaultNativeTimeout, StallAfter: 20 * time.Second,
				Residuals: resid,
			})
		})
		if err != nil {
			return
		}
		r = report.Result{
			Env: c.Env, Mode: c.Mode.String(), Grid: c.Grid, Problem: c.Problem,
			Procs: c.Procs, Size: c.Size, Scenario: c.Scenario, Backend: c.Backend, Reps: 1,
			TimeSec: rpt.Wall.Seconds(), MinTimeSec: rpt.Wall.Seconds(), WallSec: rpt.Wall.Seconds(),
			Iters:     rpt.TotalIters(),
			Messages:  rpt.Net.Messages,
			Bytes:     rpt.Net.Bytes,
			Dropped:   rpt.Net.Dropped,
			Residual:  la.MaxNormDiff(rpt.X, prob.XTrue),
			Converged: rpt.Converged(),
			Stalled:   rpt.Reason == aiac.StopStalled,
		}
		rec.do("obs.detect", func() {
			r.Flags = strings.Join(obs.Detect(resid, r.Converged, obs.DetectorParams{Eps: lp.Eps}), ",")
		})
	})
	return rpt, r, err
}

// --- isolated unit costs ---

// microIters is the loop length of the cheap unit-cost measurements at full
// size: long enough that the clock reads around the loop vanish, short
// enough that a traced run spends its time on the staged cell. The tests'
// size divisor shortens the loops as it shrinks the problems.
const microIters = 200000

// microDES measures one Schedule plus its pop-and-run with the queue held
// at depth entries: depth self-rescheduling no-op events.
func microDES(depth, n int) (ns, allocs float64) {
	sim := des.New()
	left := n
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			sim.After(des.Time(depth), tick)
		}
	}
	for i := 0; i < depth; i++ {
		sim.Schedule(des.Time(i), tick)
	}
	sec, mallocs := timeAllocs(func() { sim.Run() })
	ev := float64(sim.Events())
	return sec * 1e9 / ev, mallocs / ev
}

// microMarcel measures one CPU.ComputeK charge on a lone task, and how
// many simulator events each charge costs.
func microMarcel(n int) (ns, allocs, eventsPerOp float64) {
	sim := des.New()
	cpu := marcel.NewCPU(sim, "bench", 1000)
	sim.SpawnTask("charge", func(p *des.Proc) {
		i := 0
		var loop func()
		loop = func() {
			if i == n {
				return
			}
			i++
			cpu.ComputeK(p, 1e4, loop)
		}
		loop()
	})
	sec, mallocs := timeAllocs(func() { sim.Run() })
	return sec * 1e9 / float64(n), mallocs / float64(n), float64(sim.Events()) / float64(n)
}

// microNetsim measures Network.Send between two sites (delivery event
// included), with the loss model off or on.
func microNetsim(n, bytes int, lossy bool) (ns, eventsPerOp float64) {
	sim := des.New()
	site := func(name string) netsim.Site {
		return netsim.Site{Name: name, Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10}}
	}
	net := netsim.New(sim, []netsim.Site{site("a"), site("b")})
	a, b := net.AddNode(0), net.AddNode(1)
	net.SetJitter(0.02, defaultSeed)
	var opts []netsim.SendOpt
	if lossy {
		net.SetLoss(0.3)
		opts = append(opts, netsim.Unreliable())
	}
	deliver := func(*netsim.Message) {}
	sec, _ := timeAllocs(func() {
		for i := 0; i < n; i++ {
			if _, err := net.Send(a, b, bytes, nil, "", deliver, opts...); err != nil {
				panic(err) // two sites with uplinks always reach each other
			}
			if i%64 == 63 {
				sim.Run()
			}
		}
		sim.Run()
	})
	return sec * 1e9 / float64(n), float64(sim.Events()) / float64(n)
}

// exchangeCost is one isolated lockstep exchange round between two ranks,
// per message moved.
type exchangeCost struct{ nsPerMsg, eventsPerMsg float64 }

// microExchange measures SyncExchangeK rounds between two ranks of the
// named environment on the named grid, each round moving one message of
// `values` floats each way.
func microExchange(envName, gridName string, values, rounds int) (exchangeCost, error) {
	sim := des.New()
	grid, err := matrix.NewGrid(sim, gridName, 2)
	if err != nil {
		return exchangeCost{}, err
	}
	env, err := matrix.NewEnv(grid, envName, true, nil, envcore.WithEventLoop())
	if err != nil {
		return exchangeCost{}, err
	}
	for r := 0; r < 2; r++ {
		comm, ok := env.Comm(r).(simfast.Comm)
		if !ok {
			return exchangeCost{}, fmt.Errorf("env %s endpoint lacks the continuation Comm methods", envName)
		}
		comm.ResetSession()
		comm.SetDataSink(func(aiac.DataMsg) {})
		vals := make([]float64, values)
		sim.SpawnTask(fmt.Sprintf("rank%d", r), func(p *des.Proc) {
			var loop func(i int)
			loop = func(i int) {
				if i == rounds {
					return
				}
				out := []aiac.Outgoing{{To: 1 - r, Key: r, Iter: i, Values: vals}}
				comm.SyncExchangeK(p, out, 1, func() { loop(i + 1) })
			}
			loop(0)
		})
	}
	sec, _ := timeAllocs(func() { sim.Run() })
	msgs := float64(grid.Net.StatsSnapshot().Messages)
	events := float64(sim.Events())
	sim.Shutdown()
	return exchangeCost{nsPerMsg: sec * 1e9 / msgs, eventsPerMsg: events / msgs}, nil
}

// microProtocol measures Rank.Step on the path a spinning rank takes:
// locally converged, waiting for fresh data to confirm.
func microProtocol(eps float64, n int) float64 {
	rk := protocol.NewRank(1, protocol.Params{Eps: eps}.WithDefaults())
	stale := func(protocol.Time) bool { return false }
	var now protocol.Time
	ns, _ := perOp(n, func() {
		now += 1000
		rk.Step(now, eps/10, true, stale, 0)
	})
	return ns
}

// microRTT measures an unshaped two-rank ping-pong over tp.
func microRTT(tp transport.Transport, n int) (us float64, err error) {
	pong := make(chan struct{}, 1)
	tp.SetHandler(0, func(transport.Msg) { pong <- struct{}{} })
	tp.SetHandler(1, func(m transport.Msg) {
		// A send that fails here means the transport closed under the
		// measurement; the ping side reports it when its own Send fails.
		_ = tp.Send(1, 0, m)
	})
	if err := tp.Start(); err != nil {
		return 0, err
	}
	defer tp.Close()
	ping := transport.Msg{Type: transport.MsgState}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := tp.Send(0, 1, ping); err != nil {
			return 0, err
		}
		<-pong
	}
	return time.Since(t0).Seconds() * 1e6 / float64(n), nil
}

// --- the traced run ---

// traceRun produces the per-layer metrics of one workload. Metrics the
// workload's layers cannot produce are left out of the returned values.
func traceRun(w workload, seed int64, div int, outDir string) (runOutcome, []span, error) {
	in, err := setUp(w, seed, div)
	if err != nil {
		return runOutcome{}, nil, err
	}
	var out runOutcome
	out.values = map[string]float64{}
	v := out.values

	// Part 1: one untraced sweep, for what only the whole sweep shows.
	p, err := runPass(in)
	if err != nil {
		return out, nil, fmt.Errorf("matrix.Run: %w", err)
	}
	out.attempted = len(p.results)
	out.failures = verify(w, in, div, p.results)
	v["runtime.alloc_mb"], v["runtime.num_gc"], v["runtime.gc_cpu_s"] = p.allocMB, p.numGC, p.gcCPUS
	v["matrix.overhead_s"] = p.hostS
	for _, r := range p.results {
		v["matrix.overhead_s"] -= r.HostSec
	}

	ref := w.refCell(in.spec)
	sweep := newRecorder(ref.Key())
	if err := traceReport(sweep, p.results, outDir, v); err != nil {
		return out, nil, err
	}

	// Parts 2 and 3: the reference cell, staged and in isolation.
	out.attempted++
	var cell *recorder
	var bad string
	if w.native {
		cell, bad, err = traceNative(ref, in, seed, div, v)
	} else {
		cell, bad, err = traceSim(w, ref, in, seed, div, v)
	}
	if err != nil {
		return out, nil, err
	}
	if bad != "" {
		out.failures = append(out.failures, ref.Key()+": "+bad)
	}
	return out, mergeSpans(sweep.spans, cell.spans), nil
}

// mergeSpans joins the span lists of several recorders into one list with
// unique IDs.
func mergeSpans(lists ...[]span) []span {
	var all []span
	for _, l := range lists {
		off := len(all)
		for _, s := range l {
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
	}
	return all
}

// traceReport spans the persistence layer: one fsync'd sidecar append per
// row of the sweep and the final save, in a scratch directory.
func traceReport(rec *recorder, rows []report.Result, outDir string, v map[string]float64) error {
	dir, err := os.MkdirTemp(outDir, "report-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sc, err := report.CreateSidecar(filepath.Join(dir, "sweep.jsonl"))
	if err != nil {
		return err
	}
	for _, r := range rows {
		rec.do("report.append", func() { err = sc.Append(r.Key(), r) })
		if err != nil {
			sc.Close()
			return fmt.Errorf("sidecar append: %w", err)
		}
	}
	if err := sc.Close(); err != nil {
		return err
	}
	rec.do("report.save", func() {
		err = report.WriteFile(filepath.Join(dir, "sweep.json"), &report.Set{Results: rows})
	})
	v["report.append_us"] = rec.total("report.append") * 1e6 / float64(len(rows))
	v["report.save_s"] = rec.total("report.save")
	return err
}

// The reference cell is timed in rounds. Each round runs every variant of
// the cell once (spans off through matrix.RunCellOnce, the staged replica,
// and for simulated cells the replica with the engine's collector off),
// starting with a different variant each round so none always pays for a
// cold heap, and the fastest run of each variant is kept: single runs of a
// quarter-second cell differ by more than the overhead being measured.
const (
	minRounds    = 2
	maxRounds    = 12
	roundBudgetS = 8.0
)

func rounds(div int, variants ...func() error) error {
	begin := time.Now()
	for i := 0; i < maxRounds && (i < minRounds || time.Since(begin).Seconds() < roundBudgetS/float64(div)); i++ {
		for k := range variants {
			if err := variants[(i+k)%len(variants)](); err != nil {
				return err
			}
		}
	}
	return nil
}

// fastest keeps the smaller of a running minimum (0 = none yet) and x.
func fastest(best *float64, x float64) bool {
	if *best == 0 || x < *best {
		*best = x
		return true
	}
	return false
}

// traceSim stages a simulated reference cell. The returned string, when
// not empty, says why the cell counts as failed.
func traceSim(w workload, c matrix.Cell, in inputs, seed int64, div int, v map[string]float64) (cell *recorder, bad string, err error) {
	var offS, onS, runS float64
	var want report.Result
	var staged, untraced simStage
	err = rounds(div,
		func() error { // spans off: matrix's own path, traced repetition
			t0 := time.Now()
			r, err := matrix.RunCellOnce(c, in.spec, 0, seed, 0, trace.New())
			if err != nil {
				return fmt.Errorf("matrix.RunCellOnce(%s): %w", c.Key(), err)
			}
			fastest(&offS, time.Since(t0).Seconds())
			want = r
			return nil
		},
		func() error { // spans on: the staged replica of the same repetition
			r := newRecorder(c.Key())
			st, err := stageSim(r, c, in.spec, seed, trace.New())
			if err != nil {
				return fmt.Errorf("staging %s: %w", c.Key(), err)
			}
			if fastest(&onS, r.total("cell")) {
				staged, cell = st, r
			}
			return nil
		},
		func() error { // the replica with the engine's collector off
			r := newRecorder(c.Key())
			st, err := stageSim(r, c, in.spec, seed, nil)
			if err != nil {
				return fmt.Errorf("staging %s untraced: %w", c.Key(), err)
			}
			fastest(&runS, r.total("simfast.run"))
			untraced = st
			return nil
		},
	)
	if err != nil {
		return nil, "", err
	}
	// Every run of one seed is the same simulation, so one comparison
	// covers them all.
	if digest(staged.result) != digest(want) {
		bad = "staged replica's virtual result differs from matrix.RunCellOnce's"
	}
	if div == 1 && seed == in.gold.Seed && digest(want) != in.gold.Reference[w.name] {
		bad = "reference cell's virtual result differs from golden.json"
	}
	v["bench.trace_overhead_share"] = (onS - offS) / offS

	runTracedS := cell.total("simfast.run")
	v["problems.assemble_s"] = cell.total("problems.assemble")
	v["cluster.deploy_s"] = cell.total("cluster.deploy")
	v["scenario.deploy_s"] = cell.total("scenario.deploy")
	v["simfast.run_s"], v["simfast.run_traced_s"] = runS, runTracedS
	// A difference of two timings: below the noise floor it reads 0.
	v["trace.record_s"] = math.Max(0, runTracedS-runS)
	v["critpath.analyze_s"] = cell.total("critpath.analyze")
	v["obs.detect_s"] = cell.total("obs.detect")
	tr := staged.tr
	v["trace.spans"], v["trace.msgs"], v["trace.waits"] = float64(len(tr.Spans)), float64(len(tr.Msgs)), float64(len(tr.Waits))
	v["des.events"] = float64(untraced.events)
	v["des.events_per_s"] = float64(untraced.events) / runS
	v["netsim.messages"], v["netsim.bytes"], v["netsim.dropped"] =
		float64(staged.stats.Messages), float64(staged.stats.Bytes), float64(staged.stats.Dropped)
	rpt := staged.rpt
	v["protocol.state_msgs"], v["protocol.heartbeats"] = float64(rpt.StateMsgs), float64(rpt.Heartbeats)
	v["protocol.rebroadcasts"], v["protocol.restarts"] = float64(rpt.StopRebroadcasts), float64(rpt.Restarts)
	v["sparse.updates"] = float64(staged.updates)

	// Part 3: unit costs in isolation, at the reference cell's shape.
	n := microIters / div
	coll := trace.New()
	v["trace.addspan_ns"], _ = perOp(5*n, func() {
		n := des.Time(len(coll.Spans))
		coll.AddSpan(0, n, n+1, trace.Compute, int(n))
	})
	// The simulator exposes no queue-depth counter. The queue holds the
	// deliveries in flight plus at most one wake-up per rank (parked
	// middleware tasks hold none), so the depth is estimated from what
	// netsim shows: the peak number of messages in flight, plus the ranks.
	// The other unit costs below run on a near-empty queue; shallowNS is
	// what their own events cost there.
	depth := c.Procs + staged.stats.MaxInFlight
	v["des.queue_depth"] = float64(depth)
	v["des.event_ns"], v["des.event_allocs"] = microDES(depth, n)
	shallowNS, _ := microDES(2, n)
	var marcelEvents float64
	v["marcel.compute_ns"], v["marcel.compute_allocs"], marcelEvents = microMarcel(n)
	msgBytes := 64
	if staged.stats.Messages > 0 {
		msgBytes = int(staged.stats.Bytes / staged.stats.Messages)
	}
	var netEvents float64
	v["netsim.send_ns"], netEvents = microNetsim(n, msgBytes, false)
	v["netsim.send_lossy_ns"], _ = microNetsim(n, msgBytes, true)
	var exch exchangeCost
	for _, name := range matrix.EnvNames {
		e, err := microExchange(name, c.Grid, msgBytes/8+1, n/10)
		if err != nil {
			return nil, "", fmt.Errorf("isolated %s exchange: %w", name, err)
		}
		v["envcore.exchange_ns."+name] = e.nsPerMsg
		if name == c.Env {
			exch = e
		}
	}
	v["protocol.step_ns"] = microProtocol(in.spec.Linear.Eps, n)
	if err := microSparse(c, in.spec.Linear, v); err != nil {
		return nil, "", err
	}

	// Shares of the untraced event loop: unit cost × visible count. A unit
	// cost measured through the simulator includes the events it
	// scheduled; those are des's, so they are taken out before the layer's
	// own share is formed.
	own := func(ns, events float64) float64 {
		if s := ns - events*shallowNS; s > 0 {
			return s
		}
		return 0
	}
	runNS := runS * 1e9
	iters := float64(rpt.TotalIters())
	steps := iters // Rank.Step runs once per asynchronous iteration; lockstep ranks reduce instead
	if c.Mode == aiac.Sync {
		steps = 0
	}
	v["des.share"] = v["des.event_ns"] * v["des.events"] / runNS
	v["marcel.share"] = own(v["marcel.compute_ns"], marcelEvents) * iters / runNS
	v["netsim.share"] = own(v["netsim.send_ns"], netEvents) * v["netsim.messages"] / runNS
	v["envcore.share"] = own(exch.nsPerMsg-v["netsim.send_ns"], exch.eventsPerMsg-netEvents) * v["netsim.messages"] / runNS
	v["protocol.share"] = v["protocol.step_ns"] * steps / runNS
	v["sparse.share"] = v["sparse.step_ns"] * float64(untraced.updates) / runNS
	v["trace.share"] = v["trace.record_s"] / runTracedS
	v["simfast.unattributed_share"] = 1 - v["des.share"] - v["marcel.share"] - v["netsim.share"] -
		v["envcore.share"] - v["protocol.share"] - v["sparse.share"]
	return cell, bad, nil
}

// microSparse measures DIA.GradientStep on the reference cell's largest
// rank block. Bytes per step are computed from the array sizes (8 bytes ×
// rows × bands), not measured: the VM reports a 260 MiB shared L3, so no
// roofline ratio is claimed.
func microSparse(c matrix.Cell, lp matrix.LinearParams, v map[string]float64) error {
	prob := problems.NewCache().LinearOp(lp.Operator, c.Size, lp.Diags, lp.Rho, lp.Seed)
	a, ok := prob.A.(*sparse.DIA)
	if !ok {
		return fmt.Errorf("reference cell %s iterates a %T, not a sparse.DIA", c.Key(), prob.A)
	}
	bounds := sparse.Partition(a.N, c.Procs)
	lo, hi := bounds[0], bounds[1]
	x := append([]float64(nil), prob.XTrue...)
	scratch := make([]float64, hi-lo)
	bytes := 8 * float64(hi-lo) * float64(len(a.Offsets))
	n := int(4e8 / bytes)
	if n < 3 {
		n = 3
	}
	ns, allocs := perOp(n, func() { a.GradientStep(lo, hi, prob.Gamma, x, prob.B, scratch) })
	v["sparse.step_ns"], v["sparse.step_allocs"] = ns, allocs
	v["sparse.bytes_per_step"] = bytes
	v["sparse.step_gbs"] = bytes / ns
	return nil
}

// traceNative stages a native reference cell: the transport, the codec and
// the wall-clock protocol driver do the work here, and nothing of the
// simulator runs, so none of its metrics are produced.
func traceNative(c matrix.Cell, in inputs, seed int64, div int, v map[string]float64) (cell *recorder, bad string, err error) {
	var offS, onS float64
	var rpt *backend.Report
	err = rounds(div,
		func() error { // spans off: matrix's own path, untraced as sweeps run it
			t0 := time.Now()
			if _, err := matrix.RunCellOnce(c, in.spec, 0, seed, 0, nil); err != nil {
				return fmt.Errorf("matrix.RunCellOnce(%s): %w", c.Key(), err)
			}
			fastest(&offS, time.Since(t0).Seconds())
			return nil
		},
		func() error { // spans on: the staged replica
			r := newRecorder(c.Key())
			rp, res, err := stageNative(r, c, in.spec, seed)
			if err != nil {
				return fmt.Errorf("staging %s: %w", c.Key(), err)
			}
			if res.Stalled || !res.Converged || res.Residual > residualLimit(in.spec.Linear) {
				bad = fmt.Sprintf("staged native cell ended converged=%v stalled=%v residual=%.3g", res.Converged, res.Stalled, res.Residual)
			}
			if fastest(&onS, r.total("cell")) {
				rpt, cell = rp, r
			}
			return nil
		},
	)
	if err != nil {
		return nil, "", err
	}
	v["bench.trace_overhead_share"] = (onS - offS) / offS

	v["problems.assemble_s"] = cell.total("problems.assemble")
	v["obs.detect_s"] = cell.total("obs.detect")
	v["transport.start_s"] = cell.total("transport.start")
	v["backend.run_s"] = cell.self("backend.run")
	v["backend.iters"] = float64(rpt.TotalIters())
	v["backend.wall_per_iter_us"] = rpt.Wall.Seconds() * 1e6 / float64(rpt.TotalIters())
	v["transport.msgs"], v["transport.bytes"] = float64(rpt.Net.Messages), float64(rpt.Net.Bytes)
	v["protocol.state_msgs"], v["protocol.heartbeats"] = float64(rpt.StateMsgs), float64(rpt.Heartbeats)
	v["protocol.rebroadcasts"] = float64(rpt.StopRebroadcasts)

	halo := make([]float64, int(rpt.Net.Bytes/rpt.Net.Messages)/8+1)
	msg := transport.Msg{Type: transport.MsgData, Values: halo}
	n := microIters / div
	codecIters := 1 + 100*n/len(halo) // about 20 M values each way at full size
	var buf []byte
	var encAllocs, decAllocs float64
	v["codec.encode_ns"], encAllocs = perOp(codecIters, func() { buf = transport.AppendMsg(buf[:0], msg) })
	var derr error
	v["codec.decode_ns"], decAllocs = perOp(codecIters, func() {
		if _, err := transport.DecodeMsg(buf[4:]); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return nil, "", fmt.Errorf("decoding the codec's own frame: %w", derr)
	}
	v["codec.allocs"] = encAllocs + decAllocs
	if v["transport.chan_rtt_us"], err = microRTT(transport.NewChan(2), n/10); err != nil {
		return nil, "", fmt.Errorf("chan ping-pong: %w", err)
	}
	if v["transport.tcp_rtt_us"], err = microRTT(transport.NewTCP(2), n/10); err != nil {
		return nil, "", fmt.Errorf("tcp ping-pong: %w", err)
	}
	v["protocol.step_ns"] = microProtocol(in.spec.Linear.Eps, n)
	if err := microSparse(c, in.spec.Linear, v); err != nil {
		return nil, "", err
	}
	return cell, bad, nil
}
