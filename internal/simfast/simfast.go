// Package simfast is the goroutine-free execution driver of the AIAC
// engine: the `sim-fast` matrix backend. It runs the very same protocol
// machines (internal/protocol), middleware cost models (internal/env,
// internal/netsim, internal/marcel) and grid dynamics (internal/scenario)
// as the goroutine DES engine (internal/aiac), but every simulated
// process is a continuation-backed task (des.SpawnTask): the per-event
// hot path is a plain function call into the pending continuation, with
// zero goroutines and zero channel rendezvous.
//
// Equivalence is by construction, not by approximation: each suspension
// point of the goroutine engine maps one-to-one onto a continuation
// suspension that performs the identical Schedule calls in the identical
// order, so both engines allocate the same event sequence numbers and
// produce byte-identical Reports. The differential harness in this
// package (differential_test.go) enforces that contract over the full
// default experiment matrix, including perturbation scenarios.
package simfast

import (
	"fmt"
	"math"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/marcel"
	"aiac/internal/protocol"
	"aiac/internal/trace"
)

// Comm is the communication contract the sim-fast driver needs: the
// goroutine-engine contract plus continuation forms of every blocking
// call. envcore.Endpoint satisfies it.
type Comm interface {
	aiac.Comm
	// CanSendData reports whether TrySendData on this channel would
	// accept; it lets the driver skip the value snapshot of a send that
	// would only be discarded. Purely an allocation optimisation: the
	// accept/reject decision is the same one TrySendData makes.
	CanSendData(key int) bool
	// Snapshot copies src into a buffer recycled by the environment; the
	// copy goes out as the Values of an Outgoing with Pooled set, and the
	// environment takes it back once the receiver has incorporated it.
	Snapshot(src []float64) []float64
	BarrierK(p *des.Proc, k func())
	SendStateK(p *des.Proc, st aiac.StateMsg, k func())
	SyncExchangeK(p *des.Proc, sends []aiac.Outgoing, nRecv int, k func())
	AllreduceMaxK(p *des.Proc, v float64, k func(float64))
	AllreduceSumK(p *des.Proc, vs []float64, k func([]float64))
}

// Dynamics is the grid-dynamics contract of the sim-fast driver.
// scenario.Runtime satisfies it.
type Dynamics interface {
	aiac.Dynamics
	WaitUpK(p *des.Proc, rank int, k func())
}

// comm resolves rank r's endpoint to the sim-fast contract.
func comm(env aiac.Env, r int) Comm {
	c, ok := env.Comm(r).(Comm)
	if !ok {
		panic(fmt.Sprintf("simfast: env %s endpoint %T lacks the continuation Comm methods", env.Name(), env.Comm(r)))
	}
	return c
}

// dynamics resolves a Config's Dynamics to the sim-fast contract (nil in,
// nil out).
func dynamics(d aiac.Dynamics) Dynamics {
	if d == nil {
		return nil
	}
	kd, ok := d.(Dynamics)
	if !ok {
		panic(fmt.Sprintf("simfast: dynamics %T lacks WaitUpK (deploy the scenario with scenario.DeployEventLoop)", d))
	}
	return kd
}

// protocolParams mirrors aiac.Config.protocolParams: the protocol
// tunables resolve through internal/protocol's defaults, identically in
// both engines.
func protocolParams(c aiac.Config) protocol.Params {
	return protocol.Params{
		Eps:          c.Eps,
		PersistIters: c.PersistIters,
		MaxIters:     c.MaxIters,
		Grace:        protocol.Time(c.StopGrace),
		Heartbeat:    protocol.Time(c.StateHeartbeat),
	}.WithDefaults()
}

// Run executes one solve of prob over the grid using the environment's
// communicators and returns the report — the continuation-passing twin of
// aiac.Run. The environment must have been built with
// envcore.WithEventLoop() and any scenario deployed with
// scenario.DeployEventLoop, so every simulated process in the run is a
// task.
func Run(grid *cluster.Grid, env aiac.Env, prob aiac.Problem, cfg aiac.Config) *aiac.Report {
	pp := protocolParams(cfg)
	cfg.Eps = pp.Eps
	cfg.PersistIters = pp.PersistIters
	cfg.MaxIters = pp.MaxIters
	cfg.StopGrace = des.Time(pp.Grace)
	cfg.StateHeartbeat = des.Time(pp.Heartbeat)
	nranks := grid.Size()
	if env.Comm(0).Size() != nranks {
		panic(fmt.Sprintf("simfast: env size %d != grid size %d", env.Comm(0).Size(), nranks))
	}
	bounds := prob.PartitionBounds(nranks)
	plan := aiac.BuildSendPlan(prob, bounds)
	x0 := prob.InitialVector()
	if len(x0) != prob.Size() {
		panic("simfast: initial vector size mismatch")
	}

	e := &run{
		grid: grid, env: env, prob: prob, cfg: cfg, dyn: dynamics(cfg.Dynamics),
		bounds: bounds, plan: plan, x0: x0,
		xs:          make([][]float64, nranks),
		iters:       make([]int, nranks),
		finish:      make([]des.Time, nranks),
		done:        make([]bool, nranks),
		heard:       make([]map[int]bool, nranks),
		lastArrival: make([]map[int]des.Time, nranks),
		dirty:       make([]bool, nranks),
		maxGap:      make([]des.Time, nranks),
		capped:      make([]bool, nranks),
		epochs:      make([]int, nranks),
		ranks:       make([]*protocol.Rank, nranks),
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
		end = sim.Now()
	}
	rep := &aiac.Report{
		Elapsed:          end - start,
		Start:            start,
		End:              end,
		X:                make([]float64, len(x0)),
		ItersPerRank:     e.iters,
		Reason:           aiac.StopIterCap,
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
		rep.Reason = aiac.StopStalled
	case e.coord.Stopped() && !anyCapped:
		rep.Reason = aiac.StopConverged
	}
	if cfg.Dynamics != nil && rep.Reason == aiac.StopConverged {
		if at, ok := cfg.Dynamics.LastEventBefore(end); ok && end > at {
			rep.Reconverge = end - at
		}
	}
	for r := 0; r < nranks; r++ {
		copy(rep.X[bounds[r]:bounds[r+1]], e.xs[r][bounds[r]:bounds[r+1]])
	}
	return rep
}

// run is the per-solve state shared by the rank tasks — the mirror of the
// goroutine engine's run struct.
type run struct {
	grid        *cluster.Grid
	env         aiac.Env
	prob        aiac.Problem
	cfg         aiac.Config
	dyn         Dynamics
	bounds      []int
	plan        *aiac.SendPlan
	x0          []float64
	xs          [][]float64
	iters       []int
	finish      []des.Time
	done        []bool
	heard       []map[int]bool
	lastArrival []map[int]des.Time
	dirty       []bool
	maxGap      []des.Time
	capped      []bool
	epochs      []int
	restarts    int

	ranks     []*protocol.Rank
	coord     *protocol.Coordinator
	coordProc *des.Proc
}

// coordRuntime adapts the DES to protocol.CoordinatorRuntime, exactly as
// the goroutine engine's adapter does.
type coordRuntime run

func (rt *coordRuntime) AfterGrace(f func()) (cancel func()) {
	rt.grid.Sim.After(des.Time(rt.cfg.StopGrace), f)
	return func() {}
}

func (rt *coordRuntime) BroadcastStop() {
	rt.env.Comm(0).BroadcastStop(rt.coordProc)
}

func (e *run) crashed(r int) bool {
	return e.dyn != nil && e.dyn.Epoch(r) != e.epochs[r]
}

// recoverRankK is the continuation form of the goroutine engine's
// recoverRank: park until the node is up, then lose the rank's state.
func (e *run) recoverRankK(p *des.Proc, r int, k func()) {
	t0 := p.Now()
	e.dyn.WaitUpK(p, r, func() {
		e.cfg.Trace.AddWait(r, t0, p.Now(), trace.WaitRecovery, -1)
		e.epochs[r] = e.dyn.Epoch(r)
		e.restarts++
		e.cfg.Residuals.MarkRestart(r, p.Now().Seconds())
		copy(e.xs[r], e.x0)
		clear(e.heard[r])
		clear(e.lastArrival[r])
		e.maxGap[r] = 0
		e.dirty[r] = true
		k()
	})
}

// runRank is the body of one iterating processor task.
func (e *run) runRank(p *des.Proc, r int) {
	comm := comm(e.env, r)
	cpu := e.grid.Machines[r].CPU
	x := e.xs[r]

	comm.ResetSession()
	heard := make(map[int]bool, e.plan.RecvCount[r])
	e.heard[r] = heard
	e.lastArrival[r] = make(map[int]des.Time, e.plan.RecvCount[r])
	lastArrival := e.lastArrival[r]
	comm.SetDataSink(func(m aiac.DataMsg) {
		copy(x[m.Lo:m.Lo+len(m.Values)], m.Values)
		now := e.grid.Sim.Now()
		if prev, ok := lastArrival[m.Key]; ok {
			if gap := now - prev; gap > e.maxGap[r] {
				e.maxGap[r] = gap
			}
		}
		lastArrival[m.Key] = now
		heard[m.Key] = true
		e.dirty[r] = true
	})
	if r == 0 {
		e.coord.Reset()
		comm.SetStateSink(func(tp *des.Proc, st aiac.StateMsg) {
			e.coordProc = tp
			e.coord.OnState(st)
			e.coordProc = nil
		})
	}

	if e.dyn != nil {
		e.epochs[r] = e.dyn.Epoch(r)
	}

	done := func() {
		e.finish[r] = p.Now()
		e.done[r] = true
	}
	comm.BarrierK(p, func() {
		if e.cfg.Mode == aiac.Sync {
			e.runSync(p, r, comm, cpu, x, done)
		} else {
			e.runAsync(p, r, comm, cpu, x, done)
		}
	})
}

// runAsync is the continuation form of the AIAC iteration loop (§4.3).
// Each named closure corresponds to a region of the goroutine loop body;
// every CPU charge, send and state report happens in the identical order.
func (e *run) runAsync(p *des.Proc, r int, comm Comm, cpu *marcel.CPU, x []float64, done func()) {
	cfg := e.cfg
	rk := e.ranks[r]
	stop := comm.Stop()
	exit := func() {
		// The goroutine engine evaluates this in a defer; here the loop
		// has exactly one exit continuation.
		if !stop.IsOpen() && e.iters[r] >= cfg.MaxIters {
			e.capped[r] = true
		}
		done()
	}
	fresh := func(since protocol.Time) bool {
		return e.allChannelsFreshSince(r, des.Time(since))
	}
	const skipFactor = 1e-2
	var lastRes, lastFlops float64
	e.dirty[r] = true

	// The loop's continuations are allocated once per rank and close over
	// the mutable iteration state (iter, t0, res) instead of per-iteration
	// copies: a fast rank runs millions of iterations, and a fresh closure
	// chain each time is the hot-path allocation the goroutine engine's
	// stack gives it for free.
	var iter int
	var t0 des.Time
	var res float64
	var loop, body, afterCompute, advance func()
	advance = func() {
		iter++
		loop()
	}
	afterCompute = func() {
		cfg.Trace.AddSpan(r, t0, p.Now(), trace.Compute, iter)
		e.iters[r]++
		cfg.Residuals.Record(r, p.Now().Seconds(), res)

		for _, tgt := range e.plan.Targets[r] {
			// Snapshot only when the channel is free: a busy channel
			// rejects the send, and copying the values first is the
			// dominant waste of a fast-spinning rank (the goroutine
			// engine pays it).
			if !comm.CanSendData(tgt.Key) {
				continue
			}
			comm.TrySendData(p, aiac.Outgoing{
				To: tgt.To, Key: tgt.Key, Iter: iter, Lo: tgt.Seg.Lo,
				Values: comm.Snapshot(x[tgt.Seg.Lo:tgt.Seg.Hi]), Pooled: true,
			})
		}

		heardAll := len(e.heard[r]) == e.plan.RecvCount[r]
		if st, ok := rk.Step(protocol.Time(p.Now()), res, heardAll, fresh, protocol.Time(e.maxGap[r])); ok {
			comm.SendStateK(p, st, advance)
			return
		}
		advance()
	}
	body = func() {
		t0 = p.Now()
		var flops float64
		if e.dirty[r] || lastRes >= cfg.Eps*skipFactor || math.IsNaN(lastRes) {
			e.dirty[r] = false
			res, flops = e.prob.Update(r, e.bounds, x)
			lastRes, lastFlops = res, flops
		} else {
			res, flops = lastRes, lastFlops
		}
		cpu.ComputeK(p, flops, afterCompute)
	}
	loop = func() {
		if iter >= cfg.MaxIters || stop.IsOpen() {
			exit()
			return
		}
		if e.crashed(r) {
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

func (e *run) allChannelsFreshSince(r int, t des.Time) bool {
	if e.plan.RecvCount[r] == 0 {
		return true
	}
	la := e.lastArrival[r]
	if len(la) < e.plan.RecvCount[r] {
		return false
	}
	//lint:unordered — pure universally-quantified check, no effects; the answer is order-independent
	for _, at := range la {
		if at <= t {
			return false
		}
	}
	return true
}

// runSync is the continuation form of the SISC loop (Figure 1).
func (e *run) runSync(p *des.Proc, r int, comm Comm, cpu *marcel.CPU, x []float64, done func()) {
	cfg := e.cfg
	rk := e.ranks[r]
	// One sends slice per rank: an exchange has transmitted every block
	// before the next iteration refills it.
	sends := make([]aiac.Outgoing, 0, len(e.plan.Targets[r]))
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
					sends = append(sends, aiac.Outgoing{
						To: tgt.To, Key: tgt.Key, Iter: iter, Lo: tgt.Seg.Lo,
						Values: comm.Snapshot(x[tgt.Seg.Lo:tgt.Seg.Hi]), Pooled: true,
					})
				}
				comm.SyncExchangeK(p, sends, e.plan.RecvCount[r], func() {
					comm.AllreduceMaxK(p, res, func(global float64) {
						cfg.Trace.AddSpan(r, t1, p.Now(), trace.Idle, iter)
						if global < cfg.Eps {
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
			e.recoverRankK(p, r, func() {
				rk.StateLost(0)
				body()
			})
			return
		}
		body()
	}
	loop(0)
}
