package envcore

import (
	"fmt"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/marcel"
	"aiac/internal/trace"
)

// Event-loop execution of the middleware threads (Options.EventLoop): the
// same send/receive machinery as startThreads, written in continuation-
// passing style over des.SpawnTask so the per-event hot path involves no
// goroutine and no channel rendezvous. Every suspension point below maps
// one-to-one onto a suspension point of the goroutine loops — the same
// Chan operations, the same CPU charges, the same Sleeps, issued in the
// same order — so both executions allocate identical event sequence
// numbers and the simulation is bit-identical. internal/simfast's
// differential harness enforces that equivalence against the goroutine
// engine on the full default matrix.

// mcpu returns the rank's CPU with its concrete type, for the
// continuation-form primitives (UseK, SpawnTask).
func (ep *Endpoint) mcpu() *marcel.CPU {
	return ep.env.grid.Machines[ep.rank].CPU
}

func (ep *Endpoint) chargePackK(p *des.Proc, payloadBytes int, k func()) {
	c := ep.env.opts.Costs
	d := c.SendCPU + des.Time(c.PackNsPerByte*float64(payloadBytes))
	ep.mcpu().UseK(p, d, k)
}

func (ep *Endpoint) chargeUnpackK(p *des.Proc, payloadBytes int, k func()) {
	c := ep.env.opts.Costs
	d := c.RecvCPU + des.Time(c.UnpackNsPerByte*float64(payloadBytes))
	ep.mcpu().UseK(p, d, k)
}

// startTasks launches the per-rank middleware threads as continuation
// tasks — the event-loop twin of startThreads, spawning the same
// processes in the same order.
func (ep *Endpoint) startTasks() {
	sim := ep.env.grid.Sim
	for i := 0; i < ep.env.opts.SendThreads; i++ {
		name := fmt.Sprintf("%s-send%d@%d", ep.env.opts.Name, i, ep.rank)
		sim.SpawnTask(name, ep.sendLoopK)
	}
	switch ep.env.opts.RecvModel {
	case RecvSync:
		// No threads: SyncExchangeK drains syncData.
	case RecvSingleThread:
		nthreads := ep.env.opts.RecvThreads
		if nthreads < 1 {
			nthreads = 1
		}
		for i := 0; i < nthreads; i++ {
			name := fmt.Sprintf("%s-recv%d@%d", ep.env.opts.Name, i, ep.rank)
			sim.SpawnTask(name, ep.recvLoopK)
		}
	case RecvOnDemand:
		name := fmt.Sprintf("%s-dispatch@%d", ep.env.opts.Name, ep.rank)
		sim.SpawnTask(name, ep.dispatchLoopK)
	}
}

// The loops below allocate their continuations once per thread, not once
// per message: a thread handles one wire at a time, so the closures share
// one variable w that each message overwrites.

// sendLoopK is the continuation form of the sending-thread loop.
func (ep *Endpoint) sendLoopK(p *des.Proc) {
	c := ep.env.opts.Costs
	var w *wire
	var loop, packed, send func()
	send = func() {
		if ep.env.opts.Backpressure && w.kind == wData &&
			w.payloadBytes >= ep.env.opts.RendezvousBytes {
			w.rendezvous = true
			held := w // the loop moves on to the next wire before the handshake ends
			rtt := 2 * ep.pathLatency(held.finalTo)
			ep.env.grid.Sim.After(rtt, func() { ep.transmit(held, held.finalTo) })
			loop()
			return
		}
		ep.transmit(w, w.finalTo)
		loop()
	}
	packed = func() {
		if c.SendLatency > 0 {
			p.SleepK(c.SendLatency, send)
			return
		}
		send()
	}
	queued := func(v any, ok bool) {
		if !ok {
			return
		}
		w = v.(*wire)
		ep.chargePackK(p, w.payloadBytes, packed)
	}
	loop = func() { ep.sendq.RecvK(p, queued) }
	loop()
}

// recvLoopK is the continuation form of the single-receive-thread loop.
func (ep *Endpoint) recvLoopK(p *des.Proc) {
	c := ep.env.opts.Costs
	var w *wire
	var loop, drain, unpack, unpacked func()
	unpacked = func() {
		ep.deliverData(w)
		loop()
	}
	unpack = func() { ep.chargeUnpackK(p, w.payloadBytes, unpacked) }
	drain = func() {
		if d := ep.socketDrain(w); d > 0 {
			p.SleepK(d, unpack)
			return
		}
		unpack()
	}
	arrived := func(v any, ok bool) {
		if !ok {
			return
		}
		w = v.(*wire)
		if c.RecvLatency > 0 {
			p.SleepK(c.RecvLatency, drain)
			return
		}
		drain()
	}
	loop = func() { ep.inbox.RecvK(p, arrived) }
	loop()
}

// dispatchLoopK is the continuation form of the on-demand dispatch loop:
// a fresh handler task per message, so dispatch latencies overlap.
func (ep *Endpoint) dispatchLoopK(p *des.Proc) {
	c := ep.env.opts.Costs
	var loop func()
	arrived := func(v any, ok bool) {
		if !ok {
			return
		}
		w := v.(*wire)
		ep.mcpu().SpawnTask(ep.handlerName, func(hp *des.Proc) {
			unpack := func() {
				ep.chargeUnpackK(hp, w.payloadBytes, func() {
					ep.deliverData(w)
				})
			}
			if c.RecvLatency > 0 {
				hp.SleepK(c.RecvLatency, unpack)
				return
			}
			unpack()
		})
		loop()
	}
	loop = func() { ep.inbox.RecvK(p, arrived) }
	loop()
}

// --- continuation forms of the blocking Comm methods ---
//
// TrySendData, BroadcastStop, Stop, SetDataSink, SetStateSink and
// ResetSession never block and are shared verbatim with the goroutine
// mode; only the methods that park the calling process get K variants.

// SendStateK is the continuation form of SendState.
func (ep *Endpoint) SendStateK(p *des.Proc, st aiac.StateMsg, k func()) {
	ep.chargePackK(p, controlPayloadBytes, func() {
		ep.transmit(&wire{kind: wState, from: ep.rank, finalTo: 0, state: st, payloadBytes: controlPayloadBytes}, 0)
		k()
	})
}

// BarrierK is the continuation form of Barrier.
func (ep *Endpoint) BarrierK(p *des.Proc, k func()) {
	round := ep.barrierRound
	ep.barrierRound++
	g := des.NewGate(ep.env.grid.Sim)
	ep.barrierGates[round] = g
	ep.control(wire{kind: wBarArrive, from: ep.rank, round: round}, 0)
	t0 := p.Now()
	g.WaitK(p, func() {
		ep.env.opts.Trace.AddWait(ep.rank, t0, p.Now(), trace.WaitBarrier, takeCause(ep.barCause, round))
		k()
	})
}

// exchangeK is the state of an endpoint's SyncExchangeK in progress. The
// exchanging rank blocks in it, so an endpoint runs one at a time, and the
// continuations are built once per endpoint over this shared state instead
// of once per message.
type exchangeK struct {
	p     *des.Proc
	sends []aiac.Outgoing
	i     int // the send, then the receive, in progress
	nRecv int
	k     func()
	t0    des.Time // start of the receive phase
	w     *wire    // the received wire being unpacked

	packed, wait, unpacked func()
	arrived                func(v any, ok bool)
}

// SyncExchangeK is the continuation form of SyncExchange.
func (ep *Endpoint) SyncExchangeK(p *des.Proc, sends []aiac.Outgoing, nRecv int, k func()) {
	x := ep.exchange
	if x == nil {
		x = &exchangeK{}
		x.packed = func() {
			o := x.sends[x.i]
			ep.transmit(ep.dataWire(o), o.To)
			x.i++
			ep.exchangeSend(x)
		}
		x.wait = func() { ep.exchangeWait(x) }
		x.arrived = func(v any, ok bool) {
			if !ok {
				ep.exchangeDone(x)
				return
			}
			x.w = v.(*wire)
			ep.chargeUnpackK(x.p, x.w.payloadBytes, x.unpacked)
		}
		x.unpacked = func() {
			ep.deliverData(x.w)
			x.i++
			ep.exchangeRecv(x)
		}
		ep.exchange = x
	}
	x.p, x.sends, x.i, x.nRecv, x.k = p, sends, 0, nRecv, k
	ep.exchangeSend(x)
}

// exchangeSend performs the blocking sends one after another, then turns
// to the receive half.
func (ep *Endpoint) exchangeSend(x *exchangeK) {
	if x.i < len(x.sends) {
		ep.chargePackK(x.p, 8*len(x.sends[x.i].Values), x.packed)
		return
	}
	x.t0 = x.p.Now()
	if ep.env.opts.RecvModel != RecvSync {
		ep.syncTarget += x.nRecv
		ep.exchangeWait(x)
		return
	}
	x.i = 0
	ep.exchangeRecv(x)
}

// exchangeWait is the receive half under the threaded receive models.
func (ep *Endpoint) exchangeWait(x *exchangeK) {
	if ep.syncRecvd < ep.syncTarget {
		ep.syncWake.Reset()
		ep.syncWake.WaitK(x.p, x.wait)
		return
	}
	ep.exchangeReceived(x)
}

// exchangeRecv is the receive half under RecvSync: the exchanging process
// drains and unpacks this iteration's dependency data itself.
func (ep *Endpoint) exchangeRecv(x *exchangeK) {
	if x.i < x.nRecv {
		ep.syncData.RecvK(x.p, x.arrived)
		return
	}
	ep.exchangeReceived(x)
}

// exchangeReceived ends an exchange whose receive half has completed.
func (ep *Endpoint) exchangeReceived(x *exchangeK) {
	ep.env.opts.Trace.AddWait(ep.rank, x.t0, x.p.Now(), trace.WaitExchange, ep.lastDeliver)
	ep.exchangeDone(x)
}

// exchangeDone lets go of the caller's state and resumes the caller, which
// may start the next exchange at once.
func (ep *Endpoint) exchangeDone(x *exchangeK) {
	k := x.k
	x.p, x.sends, x.k, x.w = nil, nil, nil, nil
	k()
}

// AllreduceMaxK is the continuation form of AllreduceMax.
func (ep *Endpoint) AllreduceMaxK(p *des.Proc, v float64, k func(float64)) {
	ep.allreduceK(p, redMax, []float64{v}, func(res []float64) { k(res[0]) })
}

// AllreduceSumK is the continuation form of AllreduceSum.
func (ep *Endpoint) AllreduceSumK(p *des.Proc, vs []float64, k func([]float64)) {
	ep.allreduceK(p, redSum, vs, k)
}

func (ep *Endpoint) allreduceK(p *des.Proc, op redOp, vs []float64, k func([]float64)) {
	round := ep.redRound
	ep.redRound++
	g := des.NewGate(ep.env.grid.Sim)
	ep.redGates[round] = g
	contrib := append([]float64(nil), vs...)
	w := wire{kind: wRedContrib, from: ep.rank, round: round, redOp: op, values: contrib}
	w.payloadBytes = controlPayloadBytes + 8*len(vs)
	ep.transmit(&w, 0)
	t0 := p.Now()
	g.WaitK(p, func() {
		ep.env.opts.Trace.AddWait(ep.rank, t0, p.Now(), trace.WaitReduce, takeCause(ep.redCause, round))
		delete(ep.redGates, round)
		res := ep.redResults[round]
		delete(ep.redResults, round)
		k(res)
	})
}
