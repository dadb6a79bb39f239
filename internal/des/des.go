// Package des implements a deterministic discrete-event simulator.
//
// A Simulator advances a virtual clock by executing events in
// (timestamp, insertion-order) order. Simulated activities are processes
// (Proc) that suspend and resume under the simulator's control, so at most
// one process executes at any instant and a given program produces the same
// event order on every run. A process is a chain of continuations
// (SpawnTask, task.go): it suspends by handing the rest of its work to
// SleepK, ParkK, Chan.RecvK or Gate.WaitK as a func and returning, and the
// scheduler resumes it with a plain call. The simulator starts no goroutine
// and runs entirely on its caller's.
//
// An event is a Handler and a word of argument (queue.go): a callback given
// to Schedule is one kind of Handler, a process wake-up another, and the
// layers above schedule their own objects directly (ScheduleHandler), so
// scheduling allocates nothing once the queue has grown. Pending events
// wait in two lanes — a binary heap for events due later, a FIFO ring for
// events scheduled at the current instant, which skip the heap's sifts —
// that together pop in exact (timestamp, insertion-order) order; DES.md
// holds the measured ladder that chose the pair, and queue.go the order
// argument.
//
// The rest of the repository builds on this kernel: the network model
// schedules message deliveries as events, the CPU model charges compute time
// by parking processes until their slice is paid, and the AIAC engine's
// iteration loops are processes.
package des

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp, measured as a duration since simulation start.
type Time = time.Duration

// Simulator owns the virtual clock and the event queue.
// The zero value is not usable; call New.
type Simulator struct {
	now     Time
	q       lanes // pending events, see queue.go
	seq     uint64
	high    int // largest number of pending events seen
	nextPID int
	events  uint64
	live    map[int]*Proc // live (not yet finished) processes by id

	// Spins (spin.go): registered in start order, their earliest
	// deadline, and the marks taken since seq was markBase.
	spins    []*Spin
	spinDue  Time // earliest deadline of the spins
	markBase uint64
	marks    uint64

	// onEnqueue, when set, sees the timestamp of every event as it is
	// queued. Only the package's tests set it (export_test.go), to record
	// the op streams of real cells that DES.md's validity column replays.
	onEnqueue func(at Time)
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{live: make(map[int]*Proc)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Events returns the number of events executed so far.
func (s *Simulator) Events() uint64 { return s.events }

// LiveProcs returns the number of spawned processes that have not finished.
func (s *Simulator) LiveProcs() int { return len(s.live) }

// QueueHighWater returns the largest number of events that were pending at
// once, both lanes counted.
func (s *Simulator) QueueHighWater() int { return s.high }

// Schedule runs fn at absolute virtual time at. Scheduling in the past is an
// error and panics: it would silently reorder causality.
func (s *Simulator) Schedule(at Time, fn func()) { s.ScheduleHandler(at, funcEvent(fn), 0) }

// After runs fn d from now. A negative d panics.
func (s *Simulator) After(d Time, fn func()) { s.Schedule(s.now+d, fn) }

// ScheduleHandler calls h.Fire(arg) at absolute virtual time at — Schedule
// for callers that are their own event target and have no closure to
// build. Scheduling in the past panics, as for Schedule.
func (s *Simulator) ScheduleHandler(at Time, h Handler, arg uint64) {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, s.now))
	}
	s.enqueue(at, h, arg)
}

// AfterHandler calls h.Fire(arg) d from now. A negative d panics.
func (s *Simulator) AfterHandler(d Time, h Handler, arg uint64) {
	s.ScheduleHandler(s.now+d, h, arg)
}

// wake schedules p's next activation at absolute time at >= now.
func (s *Simulator) wake(at Time, p *Proc) { s.enqueue(at, (*wakeProc)(p), 0) }

//lint:hotpath
func (s *Simulator) enqueue(at Time, h Handler, arg uint64) {
	if s.onEnqueue != nil {
		s.onEnqueue(at)
	}
	s.seq += seqStep
	s.q.push(s.now, event{at: at, seq: s.seq, h: h, arg: arg})
	if n := s.q.len(); n > s.high {
		s.high = n
	}
}

// Run executes events until the queue is empty and no spin is left, and
// returns the final time.
func (s *Simulator) Run() Time {
	for s.q.len() > 0 || len(s.spins) > 0 {
		s.step()
	}
	return s.now
}

// Shutdown finishes every live process and returns how many it reaped. Call
// it only after Run has returned (the scheduler is idle): processes still
// alive then are parked for ever — a deadlocked synchronous exchange,
// middleware threads waiting on their inboxes. A parked process is nothing
// but its pending continuation, which Shutdown drops, and with it whatever
// the continuation alone kept reachable; nothing of the process runs again.
// The simulator is unusable afterwards.
func (s *Simulator) Shutdown() int {
	n := len(s.live)
	//lint:unordered — each process is only marked finished; nothing depends on the order.
	for _, p := range s.live {
		p.k, p.done = nil, true
	}
	clear(s.live)
	return n
}

//lint:hotpath
func (s *Simulator) step() {
	if len(s.spins) > 0 {
		if at, _ := s.next(); at > s.now {
			if s.enterSpins(at); s.q.len() == 0 {
				return // a spin's owner looked at its deadline and scheduled nothing
			}
		}
	}
	e := s.q.pop(s.now)
	if e.at < s.now {
		panic("des: time went backwards")
	}
	s.now = e.at
	s.events++
	e.h.Fire(e.arg)
}

// Proc is a simulated process. Its methods that suspend (SleepK, ParkK, and
// Chan.RecvK / Gate.WaitK on its behalf) must be called from within the
// process's own running segment.
type Proc struct {
	sim  *Simulator
	id   int
	name string
	done bool

	// k is the pending continuation: what the process does when it is next
	// activated. nil while a segment is running, and once it has finished.
	k func()

	// recvSlot carries a value handed directly to a process that was
	// parked in Chan.RecvK when a sender arrived; recvK is the continuation
	// waiting for it and takeSlot the segment that hands it over.
	recvSlot any
	recvK    func(v any)
	takeSlot func()
}

// Name returns the process name given at SpawnTask.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Unpark schedules p, parked in ParkK, to resume at the current virtual
// time. It may be called from scheduler context (event callbacks) or from
// another process; calling it for a process that is not parked corrupts the
// simulation.
func (p *Proc) Unpark() { p.sim.wake(p.sim.now, p) }
