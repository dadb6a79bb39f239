package des

import "fmt"

// Processes. A process is an ordinary *Proc whose suspension points are
// explicit continuations: to wait — for virtual time to pass (SleepK), for
// another party's Unpark (ParkK), for a value (Chan.RecvK), for a condition
// (Gate.WaitK) — it stores a func() and returns, and the scheduler simply
// calls that func when the wake-up event fires. An activation costs one
// event and one call; there is no goroutine, no channel rendezvous and no
// context switch anywhere in the simulator.
//
// The continuation passed to ParkK/SleepK/RecvK/WaitK must be the last
// action of the current segment (a tail call): code after such a call runs
// before the continuation and must not touch state the continuation
// assumes suspended. A primitive whose condition already holds (a buffered
// value, an open gate) runs the continuation synchronously, inside the call.

// SpawnTask starts a new process running body. The process begins executing
// at the current virtual time, after any already-queued same-time events;
// body runs the first segment and suspends by installing a continuation
// (SleepK, ParkK, Chan.RecvK, ...). When a segment returns without
// installing one, the process is finished.
func (s *Simulator) SpawnTask(name string, body func(p *Proc)) *Proc {
	s.nextPID++
	p := &Proc{sim: s, id: s.nextPID, name: name}
	s.live[p.id] = p
	p.k = func() { body(p) }
	s.wake(s.now, p)
	return p
}

// activate runs p's pending continuation in scheduler context. A panic in
// the segment finishes the process and is re-raised here, in the scheduler —
// on the goroutine that called Run.
func (s *Simulator) activate(p *Proc) {
	if p.done {
		return
	}
	k := p.k
	p.k = nil
	var failure any
	func() {
		defer func() {
			if r := recover(); r != nil {
				failure = fmt.Sprintf("des: process %q panicked: %v", p.name, r)
			}
		}()
		k()
	}()
	if failure != nil {
		s.finish(p)
		panic(failure)
	}
	if p.k == nil {
		// The segment returned without suspending: the process is done.
		s.finish(p)
	}
}

func (s *Simulator) finish(p *Proc) {
	if p.done {
		return
	}
	p.done = true
	delete(s.live, p.id)
}

// ParkK suspends the process until Unpark, then runs k. It is the building
// block for synchronisation primitives outside this package (CPU queues);
// pair every ParkK with exactly one Unpark.
func (p *Proc) ParkK(k func()) { p.k = k }

// SleepK suspends the process for d of virtual time, then runs k.
// SleepK(0, k) yields to any other same-time events before k runs.
func (p *Proc) SleepK(d Time, k func()) {
	if d < 0 {
		panic("des: negative sleep")
	}
	p.k = k
	p.sim.wake(p.sim.now+d, p)
}

// SleepUntilK suspends the process until the absolute virtual time t, then
// runs k. A time at or before now yields to same-time events and continues —
// the natural loop body for timeline-driven processes (scenario drivers)
// whose first events may be at time zero.
func (p *Proc) SleepUntilK(t Time, k func()) {
	now := p.sim.now
	if t < now {
		t = now
	}
	p.SleepK(t-now, k)
}

// RecvK receives from the channel on behalf of p: when a value is buffered
// k runs synchronously; otherwise the process joins the waiter queue and k
// runs when a sender hands it a value.
func (c *Chan) RecvK(p *Proc, k func(v any)) {
	if c.buf.Len() > 0 {
		k(c.buf.Pop())
		return
	}
	c.waiters.Push(p)
	p.recvK = k
	if p.takeSlot == nil {
		// Built once per process: a receive loop parks here once per message.
		p.takeSlot = func() {
			k, v := p.recvK, p.recvSlot
			p.recvK, p.recvSlot = nil, nil
			k(v)
		}
	}
	p.ParkK(p.takeSlot)
}

// WaitK makes p wait for the gate: k runs synchronously when the gate is
// already open, otherwise when it opens.
func (g *Gate) WaitK(p *Proc, k func()) {
	if g.open {
		k()
		return
	}
	g.waiters = append(g.waiters, p)
	p.ParkK(k)
}
