package aiac

import (
	"fmt"

	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/protocol"
	"aiac/internal/trace"
)

// This file is the discrete-event driver of Loop: it runs each rank's
// actions as the simulated middleware's continuations on virtual time, and
// keeps what only the simulator has — lazy spin (des.Spin) and crash
// parking on the DES. Every iteration and convergence decision is the
// Loop's and the shared protocol.Coordinator's; the native backend
// (internal/backend) runs the very same Loop on wall clocks.

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
		grid: grid, env: env, cfg: cfg, plan: plan,
		finish: make([]des.Time, nranks),
		done:   make([]bool, nranks),
		epochs: make([]int, nranks),
		loops:  make([]*Loop, nranks),
		wake:   make([]func(), nranks),
	}
	e.coord = protocol.NewCoordinator(nranks, cfg.Params(), (*coordRuntime)(e))
	e.ports = make([]*port, nranks)
	for r := range e.loops {
		e.ports[r] = &port{e: e, r: r, comm: env.Comm(r), targets: plan.Targets[r]}
		e.loops[r] = NewLoop(r, cfg, prob, bounds, plan, x0, e.ports[r])
	}
	if h := startHelper(prob, bounds, e.loops); h != nil {
		defer func() { close(h.jobs); <-h.exited }()
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
	rep := NewReport(e.loops, e.coord, stalled)
	rep.Elapsed, rep.Start, rep.End = end-start, start, end
	if cfg.Dynamics != nil && rep.Reason == StopConverged {
		if at, ok := cfg.Dynamics.LastEventBefore(end); ok && end > at {
			rep.Reconverge = end - at
		}
	}
	return &rep
}

// run is the per-solve state shared by the rank processes.
type run struct {
	grid   *cluster.Grid
	env    Env
	cfg    Config
	plan   *SendPlan
	finish []des.Time
	done   []bool
	epochs []int // crash epoch last seen per rank (Config.Dynamics)
	loops  []*Loop
	ports  []*port

	// wake[r] ends rank r's spin, if it is spinning.
	wake []func()

	// The coordinator hosted on rank 0. coordProc is the middleware thread
	// currently delivering a state message — the process the coordinator's
	// stop (re)broadcast rides on, nil in scheduler context.
	coord     *protocol.Coordinator
	coordProc *des.Proc
}

// port answers a rank's Loop from the simulated middleware endpoint and the
// scenario.
type port struct {
	e       *run
	r       int
	comm    Comm
	stop    *des.Gate
	targets []PlanTarget
}

func (pt *port) Stopped() bool { return pt.stop.IsOpen() }

func (pt *port) CanSend(i int) bool { return pt.comm.CanSendData(pt.targets[i].Key) }

func (pt *port) Crashed() bool {
	d := pt.e.cfg.Dynamics
	return d != nil && d.Epoch(pt.r) != pt.e.epochs[pt.r]
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

// abandon ends the solve for every rank at once, out of band: each rank's
// stop gate opens, so a rank that iterates exits at its next iteration
// boundary. A rank waiting in a synchronous exchange or reduction stays
// blocked, and the run ends stalled as well.
func (e *run) abandon() {
	for r := range e.loops {
		e.env.Comm(r).Stop().Open()
	}
}

// runRank is the body of one iterating processor.
func (e *run) runRank(p *des.Proc, r int) {
	comm := e.env.Comm(r)
	l := e.loops[r]

	comm.ResetSession()
	e.ports[r].stop = comm.Stop()
	// A spinning rank is woken by whatever changes what its next iteration
	// would do.
	touch := func() {
		if e.wake[r] != nil {
			e.wake[r]()
		}
	}
	comm.SetDataSink(func(m DataMsg) {
		touch()
		l.Incorporate(m.Key, m.Values, protocol.Time(e.grid.Sim.Now()))
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
	// §4.3: "only the first iteration begins at the same time on all the
	// processors"; and the non-linear problem synchronises between time
	// steps.
	comm.BarrierK(p, func() { e.drive(p, r, comm) })
}

// drive runs rank r's Loop: each action becomes the Comm, CPU or Dynamics
// primitive that performs it, handed the loop's continuation. The
// continuations are built once per rank and close over the mutable
// iteration state: a fast rank runs millions of iterations, and a closure
// chain per iteration would be the hot path's allocation.
//
// An async rank steps in runs (package doc, SPIN.md): from a Compute that
// starts quiet — reused residual, a charge that would run alone on the CPU
// (CPU.RunsAlone: idle, or holding one charge it would preempt unrun),
// Loop.Quiet, continuing the previous iteration's trace run so that its
// spans extend a run rather than append late — the rank charges nothing,
// holds the CPU's other charge (CPU.Hold) and parks on a des.Spin until its
// own deadline (the iteration cap, a heartbeat) or whatever could change an
// iteration calls wake, which folds the ended iterations in and resumes the
// one in progress as the CPU charge it would have been. An eager iteration
// is a run of one.
func (e *run) drive(p *des.Proc, r int, comm Comm) {
	cfg, l := e.cfg, e.loops[r]
	cpu := e.grid.Machines[r].CPU
	targets := e.plan.Targets[r]
	// One sends slice per rank: an exchange has transmitted every block
	// before the next iteration refills it.
	sends := make([]Outgoing, 0, len(targets))
	outgoing := func(tgt PlanTarget) Outgoing {
		return Outgoing{
			To: tgt.To, Key: tgt.Key, Iter: l.iter, Lo: tgt.Seg.Lo,
			Values: comm.Snapshot(l.Values(tgt.Seg)), Pooled: true,
		}
	}
	var t0, prevStart, prevEnd, crashAt des.Time
	var sp des.Spin
	var step, afterCompute, recovered, wake func()
	var reduced func(float64)
	// watch (un)registers fn with what can reach a spinning rank besides
	// its sinks: another charge or a load change on its CPU, the stop
	// gate, a crash.
	watch := func(fn func()) {
		cpu.Watch(fn)
		comm.Stop().OnOpen(fn)
		if cfg.Dynamics != nil {
			cfg.Dynamics.WatchEpoch(r, fn)
		}
	}
	// spin starts a run at the iteration beginning now, if it is quiet.
	spin := func(flops float64) bool {
		if flops <= 0 {
			return false
		}
		d := cpu.ChargeTime(flops)
		if !cpu.RunsAlone(d) || prevEnd != t0 || prevEnd-prevStart != d {
			return false
		}
		hb, beats, quiet := l.Quiet()
		if !quiet {
			return false
		}
		// The deadline: the boundary where the loop would exit or the
		// machine emit a heartbeat.
		m := des.Time(cfg.MaxIters - l.iter)
		if beats {
			m = min(m, max(1, (des.Time(hb)-t0+d-1)/d))
		}
		cpu.Hold()
		sp.Start(e.grid.Sim, d, int64(m), wake)
		watch(wake)
		p.ParkK(afterCompute)
		return true
	}
	wake = func() {
		if !sp.Running() {
			return
		}
		watch(nil)
		first, d, periods := sp.Lattice()
		if n := int(periods); n > 0 {
			cfg.Trace.AddRun(r, first, d, trace.Compute, l.iter, n)
			l.Spin(protocol.Time(first), protocol.Time(d), n)
		}
		t0 = first + des.Time(periods)*d
		cpu.Resume(p, &sp)
	}
	e.wake[r] = wake
	step = func() {
		for {
			a := l.Next(protocol.Time(p.Now()))
			switch a.Kind {
			case Compute:
				t0 = p.Now()
				if a.Reused && spin(a.Flops) {
					return
				}
				cpu.ComputeK(p, a.Flops, afterCompute)
				return
			case Send:
				comm.TrySendData(p, outgoing(targets[a.Target]))
			case Yield: // the data sink runs between events, never inside one
			case Exchange:
				sends = sends[:0]
				for _, tgt := range targets {
					sends = append(sends, outgoing(tgt))
				}
				comm.SyncExchangeK(p, sends, len(e.plan.Recv[r]), step)
				return
			case Allreduce:
				comm.AllreduceMaxK(p, a.V, reduced)
				return
			case SendState:
				comm.SendStateK(p, a.State, step)
				return
			case Recover:
				crashAt = p.Now()
				cfg.Dynamics.WaitUpK(p, r, recovered)
				return
			case Exit:
				e.finish[r] = p.Now()
				e.done[r] = true
				if l.NonFinite() {
					e.abandon()
				}
				return
			}
		}
	}
	afterCompute = func() {
		prevStart, prevEnd = t0, p.Now()
		cfg.Trace.AddSpan(r, t0, prevEnd, trace.Compute, l.iter)
		step()
	}
	reduced = func(global float64) {
		cfg.Trace.AddSpan(r, prevEnd, p.Now(), trace.Idle, l.iter)
		l.Reduced(global)
		step()
	}
	// A restarted rank parks until its node is up, then loses its state.
	// A sync rank's lockstep is broken by then — messages to the node were
	// dropped while it was down, so its exchange typically stalls; the
	// stall is the measured outcome, not an error (SISC has no recovery
	// protocol).
	recovered = func() {
		cfg.Trace.AddWait(r, crashAt, p.Now(), trace.WaitRecovery, -1)
		e.epochs[r] = cfg.Dynamics.Epoch(r)
		l.Restart(protocol.Time(p.Now()))
		step()
	}
	step()
}
