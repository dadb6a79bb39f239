package des

import "fmt"

// Continuation-backed processes ("tasks"): the goroutine-free execution
// mode of the simulator, used by the sim-fast engine (internal/simfast).
//
// A task is an ordinary *Proc whose suspension points are explicit
// continuations instead of a parked goroutine: where a goroutine process
// blocks in Sleep/Park/Chan.Recv and is resumed through a channel
// rendezvous (two channel operations and two context switches per
// activation), a task stores a `func()` and the scheduler simply calls it.
// Everything else — the event queue, the (timestamp, insertion-seq)
// ordering, process ids, the waiter lists of Chan/Gate/Barrier — is shared
// with goroutine processes, and every continuation primitive below enqueues
// *exactly* the same events in the same order as its blocking
// counterpart. A program that issues the same operations through either
// style therefore allocates identical event sequence numbers and executes
// an identical event order; the differential harness in internal/simfast
// holds the two engines to that contract.
//
// The continuation passed to ParkK/SleepK/RecvK/WaitK must be the last
// action of the current segment (a tail call): code after such a call runs
// before the continuation and must not touch state the continuation
// assumes suspended.

// SpawnTask starts a new continuation-backed process running body. Like
// Spawn, the process begins executing at the current virtual time, after
// any already-queued same-time events; body runs the first segment and
// suspends by installing a continuation (SleepK, ParkK, Chan.RecvK, ...).
// When a segment returns without installing one, the task is finished.
func (s *Simulator) SpawnTask(name string, body func(p *Proc)) *Proc {
	s.nextPID++
	p := &Proc{sim: s, id: s.nextPID, name: name}
	s.procs++
	s.live[p.id] = p
	p.k = func() { body(p) }
	s.wake(s.now, p)
	return p
}

// activateTask runs a task's pending continuation in scheduler context.
func (s *Simulator) activateTask(p *Proc) {
	if p.killed {
		// Shutdown reached the task: drop the continuation and finish.
		// Unlike a goroutine unwind there are no deferred functions to
		// run; task bodies perform their bookkeeping at suspension
		// boundaries instead.
		p.k = nil
		s.finishTask(p)
		return
	}
	k := p.k
	p.k = nil
	s.running = p
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.failure = fmt.Sprintf("des: process %q panicked: %v", p.name, r)
			}
		}()
		k()
	}()
	s.running = nil
	if s.failure != nil {
		s.finishTask(p)
		panic(s.failure)
	}
	if p.k == nil {
		// The segment returned without suspending: the task is done.
		s.finishTask(p)
	}
}

func (s *Simulator) finishTask(p *Proc) {
	if p.done {
		return
	}
	p.done = true
	s.procs--
	delete(s.live, p.id)
}

// ParkK suspends the task until Unpark, then runs k — the continuation
// form of Park. Pair every ParkK with exactly one Unpark.
func (p *Proc) ParkK(k func()) {
	p.mustTask("ParkK")
	p.k = k
}

// SleepK suspends the task for d of virtual time, then runs k — the
// continuation form of Sleep. SleepK(0, k) yields to any other same-time
// events before k runs.
func (p *Proc) SleepK(d Time, k func()) {
	if d < 0 {
		panic("des: negative sleep")
	}
	p.mustTask("SleepK")
	p.k = k
	p.sim.wake(p.sim.now+d, p)
}

// SleepUntilK suspends the task until the absolute virtual time t, then
// runs k — the continuation form of SleepUntil (times at or before now
// yield to same-time events first).
func (p *Proc) SleepUntilK(t Time, k func()) {
	now := p.sim.now
	if t < now {
		t = now
	}
	p.SleepK(t-now, k)
}

// IsTask reports whether the process is continuation-backed.
func (p *Proc) IsTask() bool { return p.resume == nil }

func (p *Proc) mustTask(op string) {
	if !p.IsTask() {
		panic(fmt.Sprintf("des: %s on goroutine-backed process %q (use the blocking form)", op, p.name))
	}
}

// RecvK is the continuation form of Chan.Recv: when a value is buffered
// (or the channel is closed) k runs synchronously, exactly where Recv
// would have returned without yielding; otherwise the task joins the
// waiter queue and k runs when a sender (or Close) hands it a value.
func (c *Chan) RecvK(p *Proc, k func(v any, ok bool)) {
	if c.buf.Len() > 0 {
		k(c.buf.Pop(), true)
		return
	}
	if c.closed {
		k(nil, false)
		return
	}
	c.waiters.Push(p)
	p.recvK = k
	if p.takeSlot == nil {
		// Built once per task: a receive loop parks here once per message.
		p.takeSlot = func() {
			k, v, ok := p.recvK, p.recvSlot, p.hasSlot
			p.recvK, p.recvSlot, p.hasSlot = nil, nil, false
			k(v, ok)
		}
	}
	p.ParkK(p.takeSlot)
}

// WaitK is the continuation form of Gate.Wait: k runs synchronously when
// the gate is already open, otherwise when it opens.
func (g *Gate) WaitK(p *Proc, k func()) {
	if g.open {
		k()
		return
	}
	g.waiters = append(g.waiters, p)
	p.ParkK(k)
}
