package aiac

import (
	"fmt"
	"math"

	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/marcel"
	"aiac/internal/protocol"
	"aiac/internal/trace"
)

// This file is the discrete-event driver of the AIAC protocol core
// (internal/protocol): it owns everything runtime-specific — the simulated
// middleware endpoints, virtual-time CPU charging, the iterate vectors and
// arrival bookkeeping, crash parking on the DES — and delegates every
// convergence decision to the shared protocol.Rank and protocol.Coordinator
// machines. The native backend (internal/backend) drives the very same
// machines on wall clocks; neither holds a protocol implementation of its
// own. The package doc reads the two loops below in direct style.

// Run executes one solve of prob over the grid using the environment's
// communicators and returns the report. It spawns one iterating process per
// rank (beside whatever threads the middleware runs), drives the simulator
// until the solve finishes, and assembles the result.
//
// Run may be called repeatedly on the same grid/env (the chemical problem
// calls it once per time step); each call starts at the grid's current
// virtual time and begins with a barrier, exactly like the paper's per-time-
// step synchronisation.
func Run(grid *cluster.Grid, env Env, prob Problem, cfg Config) *Report {
	cfg = cfg.withDefaults()
	pp := cfg.protocolParams()
	nranks := grid.Size()
	if env.Comm(0).Size() != nranks {
		panic(fmt.Sprintf("aiac: env size %d != grid size %d", env.Comm(0).Size(), nranks))
	}
	bounds := prob.PartitionBounds(nranks)
	plan := BuildSendPlan(prob, bounds)
	x0 := prob.InitialVector()
	if len(x0) != prob.Size() {
		panic("aiac: initial vector size mismatch")
	}

	e := &run{
		grid: grid, env: env, prob: prob, cfg: cfg,
		bounds: bounds, plan: plan, x0: x0,
		xs:          make([][]float64, nranks),
		iters:       make([]int, nranks),
		finish:      make([]des.Time, nranks),
		done:        make([]bool, nranks),
		heard:       make([][]bool, nranks),
		heardCount:  make([]int, nranks),
		lastArrival: make([][]des.Time, nranks),
		dirty:       make([]bool, nranks),
		maxGap:      make([]des.Time, nranks),
		capped:      make([]bool, nranks),
		epochs:      make([]int, nranks),
		ranks:       make([]*protocol.Rank, nranks),
		wake:        make([]func(), nranks),
	}
	e.coord = protocol.NewCoordinator(nranks, pp, (*coordRuntime)(e))
	for r := 0; r < nranks; r++ {
		e.xs[r] = make([]float64, len(x0))
		copy(e.xs[r], x0)
		e.ranks[r] = protocol.NewRank(r, pp)
	}

	sim := grid.Sim
	start := sim.Now()
	for r := 0; r < nranks; r++ {
		r := r
		sim.SpawnTask(fmt.Sprintf("rank%d", r), func(p *des.Proc) { e.runRank(p, r) })
	}
	sim.Run()

	end := start
	stalled := false
	for r, f := range e.finish {
		if !e.done[r] {
			stalled = true
		}
		if f > end {
			end = f
		}
	}
	if stalled && sim.Now() > end {
		// The queue drained with ranks still blocked: the simulation got
		// exactly as far as its last event.
		end = sim.Now()
	}
	rep := &Report{
		Elapsed:          end - start,
		Start:            start,
		End:              end,
		X:                make([]float64, len(x0)),
		ItersPerRank:     e.iters,
		Reason:           StopIterCap,
		StateMsgs:        e.coord.Msgs(),
		StopRebroadcasts: e.coord.Rebroadcasts(),
		Stalled:          stalled,
		Restarts:         e.restarts,
		Protocol:         pp,
	}
	for _, rk := range e.ranks {
		if rk.NeedReconfirm() {
			rep.TaintedRestarts++
		}
		rep.Heartbeats += rk.Heartbeats()
		rep.ReconfirmRounds += rk.Reconfirms()
	}
	anyCapped := false
	for _, c := range e.capped {
		anyCapped = anyCapped || c
	}
	switch {
	case stalled:
		rep.Reason = StopStalled
	case e.coord.Stopped() && !anyCapped:
		rep.Reason = StopConverged
	}
	if cfg.Dynamics != nil && rep.Reason == StopConverged {
		if at, ok := cfg.Dynamics.LastEventBefore(end); ok && end > at {
			rep.Reconverge = end - at
		}
	}
	for r := 0; r < nranks; r++ {
		copy(rep.X[bounds[r]:bounds[r+1]], e.xs[r][bounds[r]:bounds[r+1]])
	}
	return rep
}

// run is the per-solve state shared by the rank processes.
type run struct {
	grid        *cluster.Grid
	env         Env
	prob        Problem
	cfg         Config
	bounds      []int
	plan        *SendPlan
	x0          []float64
	xs          [][]float64
	iters       []int
	finish      []des.Time
	done        []bool
	heard       [][]bool     // [r][i]: channel plan.FirstKey[r]+i delivered since the start or restart
	heardCount  []int        // heard channels per rank
	lastArrival [][]des.Time // [r][i]: that channel's latest delivery, if heard
	dirty       []bool
	maxGap      []des.Time
	capped      []bool
	epochs      []int // crash epoch last seen per rank (Config.Dynamics)
	restarts    int

	// wake[r] ends rank r's spin, if it is spinning (runAsync); nil for a
	// synchronous rank.
	wake []func()

	// The protocol machines: one confirmation state machine per rank, one
	// coordinator hosted on rank 0. coordProc is the middleware thread
	// currently delivering a state message — the process the coordinator's
	// stop (re)broadcast rides on, nil in scheduler context.
	ranks     []*protocol.Rank
	coord     *protocol.Coordinator
	coordProc *des.Proc
}

// coordRuntime adapts the DES to protocol.CoordinatorRuntime: grace timers
// are simulator events, and stop broadcasts go through rank 0's middleware
// endpoint on whichever thread delivered the triggering message.
type coordRuntime run

func (rt *coordRuntime) AfterGrace(f func()) (cancel func()) {
	rt.grid.Sim.After(des.Time(rt.cfg.StopGrace), f)
	// DES events cannot be withdrawn; the callback re-checks the
	// coordinator's generation, so firing late is harmless.
	return func() {}
}

func (rt *coordRuntime) BroadcastStop() {
	rt.env.Comm(0).BroadcastStop(rt.coordProc)
}

// crashed reports whether rank r's node crashed since the engine last
// looked (its scenario crash epoch advanced).
func (e *run) crashed(r int) bool {
	return e.cfg.Dynamics != nil && e.cfg.Dynamics.Epoch(r) != e.epochs[r]
}

// recoverRankK implements the driver side of a restart after a crash: the
// rank's process parks until the node is back up, then loses its state —
// iterate vector back to the initial guess (own block *and* ghost values),
// dependency channels unheard, arrival bookkeeping cleared — and goes on
// with k. The protocol side — retreat if the coordinator held our
// confirmation, and the needReconfirm debt behind Report.TaintedRestarts —
// is Rank.StateLost, which the iteration loops invoke right after this.
func (e *run) recoverRankK(p *des.Proc, r int, k func()) {
	t0 := p.Now()
	e.cfg.Dynamics.WaitUpK(p, r, func() {
		e.cfg.Trace.AddWait(r, t0, p.Now(), trace.WaitRecovery, -1)
		e.epochs[r] = e.cfg.Dynamics.Epoch(r)
		e.restarts++
		e.cfg.Residuals.MarkRestart(r, p.Now().Seconds())
		copy(e.xs[r], e.x0)
		clear(e.heard[r])
		e.heardCount[r] = 0
		clear(e.lastArrival[r])
		e.maxGap[r] = 0
		e.dirty[r] = true
		k()
	})
}

// runRank is the body of one iterating processor.
func (e *run) runRank(p *des.Proc, r int) {
	comm := e.env.Comm(r)
	cpu := e.grid.Machines[r].CPU
	x := e.xs[r]

	comm.ResetSession()
	heard := make([]bool, e.plan.RecvCount[r])
	lastArrival := make([]des.Time, e.plan.RecvCount[r])
	e.heard[r], e.lastArrival[r] = heard, lastArrival
	// A spinning rank (runAsync) is woken by whatever changes what its next
	// iteration would do.
	touch := func() {
		if e.wake[r] != nil {
			e.wake[r]()
		}
	}
	comm.SetDataSink(func(m DataMsg) {
		touch()
		copy(x[m.Lo:m.Lo+len(m.Values)], m.Values)
		now := e.grid.Sim.Now()
		i := m.Key - e.plan.FirstKey[r]
		if heard[i] {
			if gap := now - lastArrival[i]; gap > e.maxGap[r] {
				e.maxGap[r] = gap
			}
		} else {
			heard[i] = true
			e.heardCount[r]++
		}
		lastArrival[i] = now
		e.dirty[r] = true
	})
	comm.SetFreeSink(func(int) { touch() })
	if r == 0 {
		e.coord.Reset()
		comm.SetStateSink(func(tp *des.Proc, st StateMsg) {
			e.coordProc = tp
			e.coord.OnState(st)
			e.coordProc = nil
		})
	}

	if e.cfg.Dynamics != nil {
		e.epochs[r] = e.cfg.Dynamics.Epoch(r)
	}

	done := func() {
		e.finish[r] = p.Now()
		e.done[r] = true
	}
	// §4.3: "only the first iteration begins at the same time on all the
	// processors"; and the non-linear problem synchronises between time
	// steps.
	comm.BarrierK(p, func() {
		if e.cfg.Mode == Sync {
			e.runSync(p, r, comm, cpu, x, done)
		} else {
			e.runAsync(p, r, comm, cpu, x, done)
		}
	})
}

// runAsync is the AIAC iteration loop of §4.3: compute with whatever
// dependency data is available, send asynchronously with the skip policy,
// and feed the completed iteration to the rank's confirmation machine. Each
// named closure is a region of the loop body between two suspensions.
//
// The loop steps in runs (package doc, SPIN.md): from an iteration that
// starts quiet — reused residual, no other charge on the CPU, every send
// channel busy, protocol machine Quiet, continuing the previous iteration's
// trace run so that its spans extend a run rather than append late — the
// rank charges nothing and parks on a des.Spin until its own deadline (the
// iteration cap, a heartbeat) or whatever could change an iteration calls
// wake, which folds the ended iterations in and resumes the one in progress
// as the CPU charge it would have been. An eager iteration is a run of one.
func (e *run) runAsync(p *des.Proc, r int, comm Comm, cpu *marcel.CPU, x []float64, done func()) {
	cfg := e.cfg
	rk := e.ranks[r]
	stop := comm.Stop()
	exit := func() {
		if !stop.IsOpen() && e.iters[r] >= cfg.MaxIters {
			e.capped[r] = true
		}
		done()
	}
	// The freshness gate of the two-phase confirmation, evaluated lazily
	// by the machine (only while it awaits confirmation).
	fresh := func(since protocol.Time) bool {
		return e.allChannelsFreshSince(r, des.Time(since))
	}
	// Host-side memoisation: a processor that has reached its local fixed
	// point (residual far below eps) and has received no new dependency
	// data since its last update would recompute values identical to
	// within the drift floor. The simulated CPU is still charged the full
	// iteration — the paper's processors "keep on computing" — but the
	// host skips redoing the arithmetic. This changes nothing observable
	// above the eps scale and makes paper-scale benchmarks tractable.
	const skipFactor = 1e-2
	var lastRes, lastFlops float64
	e.dirty[r] = true

	// The loop's continuations are allocated once per rank and close over
	// the mutable iteration state (iter, t0, res, and the previous
	// iteration's extent) instead of per-iteration copies: a fast rank runs
	// millions of iterations, and a fresh closure chain each time would be
	// the hot path's allocation.
	var iter int
	var t0, prevStart, prevEnd des.Time
	var res float64
	var sp des.Spin
	var loop, body, afterCompute, advance, wake func()
	advance = func() {
		iter++
		loop()
	}
	afterCompute = func() {
		prevStart, prevEnd = t0, p.Now()
		cfg.Trace.AddSpan(r, t0, p.Now(), trace.Compute, iter)
		e.iters[r]++
		cfg.Residuals.Record(r, p.Now().Seconds(), res)

		for _, tgt := range e.plan.Targets[r] {
			// Asynchronous sends are skipped while the previous send of
			// the same data to the same destination is still in flight.
			// Snapshot only when the channel is free: copying values a
			// busy channel would reject is the dominant waste of a
			// fast-spinning rank.
			if !comm.CanSendData(tgt.Key) {
				continue
			}
			comm.TrySendData(p, Outgoing{
				To: tgt.To, Key: tgt.Key, Iter: iter, Lo: tgt.Seg.Lo,
				Values: comm.Snapshot(x[tgt.Seg.Lo:tgt.Seg.Hi]), Pooled: true,
			})
		}

		// Local convergence is the protocol machine's call: persistence,
		// then two-phase confirmation, with heartbeats once confirmed.
		heardAll := e.heardCount[r] == e.plan.RecvCount[r]
		if st, ok := rk.Step(protocol.Time(p.Now()), res, heardAll, fresh, protocol.Time(e.maxGap[r])); ok {
			comm.SendStateK(p, st, advance)
			return
		}
		advance()
	}
	// watch (un)registers fn with what can reach a spinning rank besides
	// its sinks: another charge or a load change on its CPU, the stop
	// gate, a crash.
	watch := func(fn func()) {
		cpu.Watch(fn)
		stop.OnOpen(fn)
		if cfg.Dynamics != nil {
			cfg.Dynamics.WatchEpoch(r, fn)
		}
	}
	wake = func() {
		if !sp.Running() {
			return
		}
		watch(nil)
		first, d, periods := sp.Lattice()
		if n := int(periods); n > 0 {
			cfg.Trace.AddRun(r, first, d, trace.Compute, iter, n)
			e.iters[r] += n
			cfg.Residuals.RecordRun(r, n, func(i int) float64 { return (first + des.Time(i+1)*d).Seconds() }, res)
			rk.Spin(n)
			iter += n
		}
		t0 = first + des.Time(periods)*d
		cpu.Resume(p, &sp)
	}
	e.wake[r] = wake
	// spin starts a run at the iteration beginning now, if it is quiet.
	spin := func() bool {
		if lastFlops <= 0 || !cpu.Idle() {
			return false
		}
		d := cpu.ChargeTime(lastFlops)
		if prevEnd != t0 || prevEnd-prevStart != d {
			return false
		}
		for _, tgt := range e.plan.Targets[r] {
			if comm.CanSendData(tgt.Key) {
				return false
			}
		}
		hb, beats, quiet := rk.Quiet(e.heardCount[r] == e.plan.RecvCount[r])
		if !quiet {
			return false
		}
		// The deadline: the boundary where the loop would exit or the
		// machine emit a heartbeat.
		m := des.Time(cfg.MaxIters - iter)
		if beats {
			m = min(m, max(1, (des.Time(hb)-t0+d-1)/d))
		}
		sp.Start(e.grid.Sim, d, int64(m), wake)
		watch(wake)
		p.ParkK(afterCompute)
		return true
	}
	body = func() {
		t0 = p.Now()
		if e.dirty[r] || lastRes >= cfg.Eps*skipFactor || math.IsNaN(lastRes) {
			e.dirty[r] = false
			res, lastFlops = e.prob.Update(r, e.bounds, x)
			lastRes = res
		} else {
			res = lastRes
			if spin() {
				return
			}
		}
		cpu.ComputeK(p, lastFlops, afterCompute)
	}
	loop = func() {
		if iter >= cfg.MaxIters || stop.IsOpen() {
			exit()
			return
		}
		if e.crashed(r) {
			// The node went down since the previous iteration: park until
			// restart, lose state, and retreat if the coordinator had our
			// convergence confirmation.
			e.recoverRankK(p, r, func() {
				afterState := func() {
					lastRes, lastFlops = 0, 0
					if stop.IsOpen() {
						exit()
						return
					}
					body()
				}
				if st, ok := rk.StateLost(protocol.Time(e.maxGap[r])); ok {
					comm.SendStateK(p, st, afterState)
					return
				}
				afterState()
			})
			return
		}
		body()
	}
	loop()
}

// allChannelsFreshSince reports whether every dependency channel of rank r
// has delivered at least one message after time t.
func (e *run) allChannelsFreshSince(r int, t des.Time) bool {
	if e.heardCount[r] < e.plan.RecvCount[r] {
		return false
	}
	for _, at := range e.lastArrival[r] {
		if at <= t {
			return false
		}
	}
	return true
}

// runSync is the SISC loop (Figure 1): compute, blocking exchange, global
// residual reduction — all processors in lockstep.
func (e *run) runSync(p *des.Proc, r int, comm Comm, cpu *marcel.CPU, x []float64, done func()) {
	cfg := e.cfg
	rk := e.ranks[r]
	// One sends slice per rank: an exchange has transmitted every block
	// before the next iteration refills it.
	sends := make([]Outgoing, 0, len(e.plan.Targets[r]))
	var loop func(iter int)
	loop = func(iter int) {
		if iter >= cfg.MaxIters {
			done()
			return
		}
		body := func() {
			t0 := p.Now()
			res, flops := e.prob.Update(r, e.bounds, x)
			cpu.ComputeK(p, flops, func() {
				t1 := p.Now()
				cfg.Trace.AddSpan(r, t0, t1, trace.Compute, iter)
				e.iters[r]++
				cfg.Residuals.Record(r, t1.Seconds(), res)

				sends = sends[:0]
				for _, tgt := range e.plan.Targets[r] {
					sends = append(sends, Outgoing{
						To: tgt.To, Key: tgt.Key, Iter: iter, Lo: tgt.Seg.Lo,
						Values: comm.Snapshot(x[tgt.Seg.Lo:tgt.Seg.Hi]), Pooled: true,
					})
				}
				comm.SyncExchangeK(p, sends, e.plan.RecvCount[r], func() {
					comm.AllreduceMaxK(p, res, func(global float64) {
						cfg.Trace.AddSpan(r, t1, p.Now(), trace.Idle, iter)
						if global < cfg.Eps {
							// The global reduction just validated every
							// block, including any restarted one: the
							// state loss has been recomputed away.
							rk.Validate()
							e.coord.MarkStopped()
							done()
							return
						}
						loop(iter + 1)
					})
				})
			})
		}
		if e.crashed(r) {
			// Restart with state loss. The lockstep is already broken —
			// messages to this node were dropped while it was down, so the
			// exchange typically stalls; the stall is the measured outcome,
			// not an error (SISC has no recovery protocol).
			e.recoverRankK(p, r, func() {
				rk.StateLost(0) // flag the unvalidated block; no coordinator in sync
				body()
			})
			return
		}
		body()
	}
	loop(0)
}
