// Package des implements a deterministic discrete-event simulator.
//
// A Simulator advances a virtual clock by executing events in
// (timestamp, insertion-order) order. Simulated activities are processes
// (Proc) that suspend and resume under the simulator's control, so at most
// one process executes at any instant and a given program produces the same
// event order on every run. A process has one of two bodies: a goroutine
// that blocks in Sleep/Park/Chan.Recv and is resumed through a channel
// rendezvous (Spawn), or a chain of continuations the scheduler simply
// calls (SpawnTask, task.go — the form the sim-fast engine runs on). Both
// kinds share the queue, the ordering and the synchronisation primitives,
// and issue identical event sequences for identical programs.
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
// by putting processes to sleep, and the AIAC engine's iteration loops are
// processes.
package des

import (
	"fmt"
	"sort"
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
	running *Proc
	yielded chan struct{}
	failure any // first panic recovered from a process
	events  uint64
	procs   int           // live (not yet finished) processes
	live    map[int]*Proc // live processes by id (for Shutdown)

	// onEnqueue, when set, sees the timestamp of every event as it is
	// queued. Only the package's tests set it (export_test.go), to record
	// the op streams of real cells that DES.md's validity column replays.
	onEnqueue func(at Time)
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{yielded: make(chan struct{}), live: make(map[int]*Proc)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Events returns the number of events executed so far.
func (s *Simulator) Events() uint64 { return s.events }

// LiveProcs returns the number of spawned processes that have not finished.
func (s *Simulator) LiveProcs() int { return s.procs }

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
	s.seq++
	s.q.push(s.now, event{at: at, seq: s.seq, h: h, arg: arg})
	if n := s.q.len(); n > s.high {
		s.high = n
	}
}

// Spawn starts a new process running body. The process begins executing at
// the current virtual time, after any already-queued same-time events.
func (s *Simulator) Spawn(name string, body func(p *Proc)) *Proc {
	s.nextPID++
	p := &Proc{
		sim:    s,
		id:     s.nextPID,
		name:   name,
		resume: make(chan struct{}),
	}
	s.procs++
	s.live[p.id] = p
	go func() {
		<-p.resume // wait for first activation
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(killSentinel); !isKill {
					p.sim.failure = fmt.Sprintf("des: process %q panicked: %v", p.name, r)
				}
			}
			p.done = true
			p.sim.procs--
			delete(p.sim.live, p.id)
			p.sim.yielded <- struct{}{}
		}()
		if p.killed {
			// Shutdown reached a process that was never activated.
			panic(killSentinel{})
		}
		body(p)
	}()
	s.wake(s.now, p)
	return p
}

// activate hands control to p until it yields (sleeps, blocks, or finishes).
// Must be called from the scheduler context.
func (s *Simulator) activate(p *Proc) {
	if p.done {
		return
	}
	if p.resume == nil {
		s.activateTask(p)
		return
	}
	s.running = p
	p.resume <- struct{}{}
	<-s.yielded
	s.running = nil
	if s.failure != nil {
		panic(s.failure)
	}
}

// Run executes events until the queue is empty and returns the final time.
func (s *Simulator) Run() Time {
	for s.q.len() > 0 {
		s.step()
	}
	return s.now
}

// killSentinel is the panic value that unwinds a process terminated by
// Shutdown; the spawn wrapper recognises it and does not record a failure.
type killSentinel struct{}

// Shutdown terminates every live process and returns how many it reaped.
// Call it only after Run has returned (the scheduler is idle): processes
// still alive then are parked forever — a deadlocked synchronous exchange,
// middleware threads blocked on their inboxes — and their goroutines (and
// everything the simulation references) would otherwise leak for the life
// of the host process, since Go cannot collect a blocked goroutine. Each
// process unwinds via a panic that runs its deferred functions; the
// simulator is unusable afterwards.
func (s *Simulator) Shutdown() int {
	n := 0
	for _, p := range sortedLive(s.live) {
		if p.done {
			continue
		}
		p.killed = true
		s.activate(p)
		n++
	}
	return n
}

// sortedLive returns the live processes in id order, so Shutdown's unwind
// order is deterministic.
func sortedLive(live map[int]*Proc) []*Proc {
	out := make([]*Proc, 0, len(live))
	for _, p := range live {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RunUntil executes events with timestamps <= deadline, leaves the clock at
// min(deadline, last event time), and reports whether the queue drained.
func (s *Simulator) RunUntil(deadline Time) bool {
	for {
		at, ok := s.q.next(s.now)
		if !ok {
			return true
		}
		if at > deadline {
			return false
		}
		s.step()
	}
}

//lint:hotpath
func (s *Simulator) step() {
	e := s.q.pop(s.now)
	if e.at < s.now {
		panic("des: time went backwards")
	}
	s.now = e.at
	s.events++
	e.h.Fire(e.arg)
}

// Proc is a simulated process. All methods must be called from within the
// process's own body function (they yield control to the scheduler), except
// where noted.
type Proc struct {
	sim    *Simulator
	id     int
	name   string
	resume chan struct{}
	done   bool
	killed bool // set by Shutdown; the next resume unwinds the process

	// recvSlot carries a value handed directly to a process that was
	// blocked in Chan.Recv when a sender arrived.
	recvSlot any
	hasSlot  bool

	// k is the pending continuation of a continuation-backed process
	// (SpawnTask); nil while the task is running or finished. Goroutine
	// processes never use it. See task.go.
	k func()
	// recvK is the continuation of a task blocked in Chan.RecvK, and
	// takeSlot the segment that hands it the received value.
	recvK    func(v any, ok bool)
	takeSlot func()
}

// ID returns the process id (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// yield returns control to the scheduler and blocks until reactivated.
func (p *Proc) yield() {
	p.sim.yielded <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killSentinel{})
	}
}

// Sleep suspends the process for d of virtual time. Sleep(0) yields to any
// other same-time events before continuing.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("des: negative sleep")
	}
	p.sim.wake(p.sim.now+d, p)
	p.yield()
}

// SleepUntil suspends the process until the absolute virtual time t.
// A time at or before now yields to same-time events and continues — the
// natural loop body for timeline-driven processes (scenario drivers) whose
// first events may be at time zero.
func (p *Proc) SleepUntil(t Time) {
	now := p.sim.now
	if t < now {
		t = now
	}
	p.Sleep(t - now)
}

// park blocks the process until something reactivates it via sim.activate
// (used by Chan and higher-level synchronisation built on it).
func (p *Proc) park() { p.yield() }

// unpark schedules the process to resume at the current virtual time.
// Callable from scheduler context or from another process.
func (p *Proc) unpark() { p.sim.wake(p.sim.now, p) }

// Park blocks the calling process until another process or event calls
// Unpark on it. It is the building block for synchronisation primitives
// outside this package (mutexes, CPU queues); pair every Park with exactly
// one Unpark.
func (p *Proc) Park() { p.park() }

// Unpark schedules p to resume at the current virtual time. It may be
// called from scheduler context (event callbacks) or from another process;
// calling it for a process that is not parked corrupts the simulation.
func (p *Proc) Unpark() { p.unpark() }
