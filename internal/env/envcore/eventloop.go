package envcore

import (
	"fmt"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/marcel"
	"aiac/internal/trace"
)

// The parts of an endpoint that take virtual time: its middleware threads
// (sending threads, and the receive machinery of its RecvModel) and the Comm
// operations that make the calling rank wait. All of them are des processes
// written in continuation-passing style: a thread is a loop of named
// segments, each ending in the primitive that suspends it (Chan.RecvK, a
// CPU charge, SleepK) with the next segment as the continuation.

// mcpu returns the rank's CPU.
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

// startTasks launches the environment's per-rank threads.
func (ep *Endpoint) startTasks() {
	sim := ep.env.grid.Sim
	for i := 0; i < ep.env.opts.SendThreads; i++ {
		name := fmt.Sprintf("%s-send%d@%d", ep.env.opts.Name, i, ep.rank)
		sim.SpawnTask(name, ep.sendLoopK)
	}
	// Receive machinery.
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

// sendLoopK is a sending thread: it consumes the async send queue, paying
// the pack cost and the send latency of each wire before it transmits.
func (ep *Endpoint) sendLoopK(p *des.Proc) {
	c := ep.env.opts.Costs
	var w *wire
	var loop, packed, send func()
	send = func() {
		if ep.env.opts.Backpressure && w.kind == wData &&
			w.payloadBytes >= ep.env.opts.RendezvousBytes {
			// Rendezvous protocol: RTS/CTS handshake — one extra
			// round-trip — before the payload moves. The handshake is
			// kernel-level, so the send thread is free, but the channel
			// stays in-progress.
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
	queued := func(v any) {
		w = v.(*wire)
		ep.chargePackK(p, w.payloadBytes, packed)
	}
	loop = func() { ep.sendq.RecvK(p, queued) }
	loop()
}

// recvLoopK is a receiving thread of RecvSingleThread: strictly one message
// after another — the dispatch latency, the drain of a tail the socket
// buffer could not hold and the unpack cost of message k all delay k+1.
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
	arrived := func(v any) {
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

// dispatchLoopK is the dispatcher of RecvOnDemand: a handler thread per
// message, so dispatch latencies overlap and only CPU costs contend.
func (ep *Endpoint) dispatchLoopK(p *des.Proc) {
	var loop func()
	arrived := func(v any) {
		ep.dispatch(v.(*wire))
		loop()
	}
	loop = func() { ep.inbox.RecvK(p, arrived) }
	loop()
}

// handler is a receiving thread of RecvOnDemand. The model creates a thread
// per message; the simulator keeps the threads whose message is done parked
// on their endpoint's idle list and gives the next message to one of them,
// spawning a process only when none is idle. Waking a parked handler is the
// very event a spawn schedules — at the current instant, in the same place
// of the queue — and the handler then pays the thread-creation cost
// (marcel.CPU.SpawnCost) before anything else, as a new thread would: what
// the model charges and when is unchanged, only the host stops allocating
// a thread per message. The continuations are built once per handler.
type handler struct {
	p    *des.Proc
	w    *wire    // the message in hand; nil while the handler is idle
	next *handler // the endpoint's idle list

	start, created, unpack, unpacked func()
}

// dispatch hands w to an idle handler, or to a new one, and starts it.
func (ep *Endpoint) dispatch(w *wire) {
	h := ep.idle
	if h == nil {
		ep.spawnHandler(w)
		return
	}
	ep.idle, h.next = h.next, nil
	h.w = w
	h.p.Unpark()
}

// spawnHandler starts a new handler thread with w in hand.
func (ep *Endpoint) spawnHandler(w *wire) {
	c := ep.env.opts.Costs
	h := &handler{w: w}
	h.start = func() {
		cpu := ep.mcpu()
		cpu.UseK(h.p, cpu.SpawnCost, h.created)
	}
	h.created = func() {
		if c.RecvLatency > 0 {
			h.p.SleepK(c.RecvLatency, h.unpack)
			return
		}
		h.unpack()
	}
	h.unpack = func() { ep.chargeUnpackK(h.p, h.w.payloadBytes, h.unpacked) }
	h.unpacked = func() {
		w := h.w
		h.w = nil
		ep.deliverData(w)
		h.next = ep.idle
		ep.idle = h
		h.p.ParkK(h.start)
	}
	h.p = ep.env.grid.Sim.SpawnTask(ep.handlerName, func(*des.Proc) { h.start() })
}

// --- the aiac.Comm methods that take virtual time ---

// SendStateK implements aiac.Comm: state changes go to rank 0, never
// skipped.
func (ep *Endpoint) SendStateK(p *des.Proc, st aiac.StateMsg, k func()) {
	ep.chargePackK(p, controlPayloadBytes, func() {
		w := ep.env.newWire()
		*w = wire{kind: wState, from: ep.rank, finalTo: 0, state: st, payloadBytes: controlPayloadBytes}
		ep.transmit(w, 0)
		k()
	})
}

// BarrierK implements aiac.Comm.
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
	arrived                func(v any)
}

// SyncExchangeK implements the SISC exchange. On the mono-threaded
// environment (RecvSync) the exchanging process itself drains and unpacks
// the queued data messages, which is where the receive cost of classical
// MPI lands. On the threaded environments the receive machinery unpacks and
// incorporates messages as they arrive, so the exchange only waits until
// the cumulative delivery count covers this round — the SISC algorithm run
// over a multithreaded middleware keeps its barrier semantics while paying
// that middleware's receive costs.
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
		x.arrived = func(v any) {
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

// exchangeSend performs the sends one after another, each paid for before
// the next starts, then turns to the receive half.
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

// reduceK is the state of an endpoint's allreduce in progress. The reducing
// rank blocks in it, so an endpoint runs one round at a time, and the gate,
// the contribution buffer and the continuations are built once per endpoint
// instead of once per round. The contribution travels to rank 0 by
// reference: rank 0 reads it on arrival, before any rank can have the
// round's result, so the next round may refill it.
type reduceK struct {
	p       *des.Proc
	round   int
	t0      des.Time
	gate    *des.Gate
	contrib []float64
	res     []float64 // the round's result, once it arrived
	cause   int       // trace index of the result's delivery
	k       func([]float64)
	kMax    func(float64) // AllreduceMaxK's continuation, instead of k
	waited  func()
}

// AllreduceMaxK implements aiac.Comm via gather-to-0 plus broadcast.
func (ep *Endpoint) AllreduceMaxK(p *des.Proc, v float64, k func(float64)) {
	x := ep.reduceState()
	x.contrib = append(x.contrib[:0], v)
	x.kMax = k
	ep.allreduceK(p, x, redMax)
}

// AllreduceSumK implements aiac.Comm: element-wise sums across ranks, the
// collective behind distributed dot products.
func (ep *Endpoint) AllreduceSumK(p *des.Proc, vs []float64, k func([]float64)) {
	x := ep.reduceState()
	x.contrib = append(x.contrib[:0], vs...)
	x.k = k
	ep.allreduceK(p, x, redSum)
}

// reduceState returns the endpoint's allreduce state, free for a new round.
// A round still in progress belongs to a process an earlier session left
// blocked; it keeps its own state, which a late result can still wake.
func (ep *Endpoint) reduceState() *reduceK {
	x := ep.reduce
	if x != nil && x.p == nil {
		return x
	}
	if x != nil {
		if ep.redAbandoned == nil {
			ep.redAbandoned = make(map[int]*reduceK)
		}
		ep.redAbandoned[x.round] = x
	}
	x = &reduceK{gate: des.NewGate(ep.env.grid.Sim)}
	x.waited = func() {
		ep.env.opts.Trace.AddWait(ep.rank, x.t0, x.p.Now(), trace.WaitReduce, x.cause)
		res, k, kMax := x.res, x.k, x.kMax
		x.p, x.res, x.k, x.kMax = nil, nil, nil, nil
		if kMax != nil {
			kMax(res[0])
			return
		}
		k(res)
	}
	ep.reduce = x
	return x
}

func (ep *Endpoint) allreduceK(p *des.Proc, x *reduceK, op redOp) {
	x.p, x.round, x.cause = p, ep.redRound, -1
	ep.redRound++
	x.gate.Reset()
	w := ep.env.newWire()
	*w = wire{kind: wRedContrib, from: ep.rank, round: x.round, redOp: op, values: x.contrib,
		payloadBytes: controlPayloadBytes + 8*len(x.contrib)}
	ep.transmit(w, 0)
	x.t0 = p.Now()
	x.gate.WaitK(p, x.waited)
}

// reduced hands a round's result to the allreduce waiting for it.
func (ep *Endpoint) reduced(w *wire) {
	x := ep.reduce
	if x == nil || x.p == nil || x.round != w.round {
		if x = ep.redAbandoned[w.round]; x == nil {
			return
		}
		delete(ep.redAbandoned, w.round)
	}
	x.res, x.cause = w.values, w.msgIdx
	x.gate.Open()
}
