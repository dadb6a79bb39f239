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
// The event queue is a typed binary heap of event values (queue.go): a
// Schedule allocates nothing once the heap has grown, and a process wake-up
// is carried in the event itself, not in a closure. DES.md holds the
// measured ladder that chose it.
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
	queue   []event // binary min-heap, see queue.go
	seq     uint64
	high    int // largest queue length seen
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
// once — the depth the queue's cost depends on.
func (s *Simulator) QueueHighWater() int { return s.high }

// Schedule runs fn at absolute virtual time at. Scheduling in the past is an
// error and panics: it would silently reorder causality.
func (s *Simulator) Schedule(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, s.now))
	}
	s.enqueue(at, fn, nil)
}

// wake schedules p's next activation at absolute time at >= now.
func (s *Simulator) wake(at Time, p *Proc) { s.enqueue(at, nil, p) }

func (s *Simulator) enqueue(at Time, fn func(), p *Proc) {
	if s.onEnqueue != nil {
		s.onEnqueue(at)
	}
	s.seq++
	s.queue = pushEvent(s.queue, event{at: at, seq: s.seq, fn: fn, p: p})
	if len(s.queue) > s.high {
		s.high = len(s.queue)
	}
}

// After runs fn d from now. A negative d panics.
func (s *Simulator) After(d Time, fn func()) { s.Schedule(s.now+d, fn) }

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
	for len(s.queue) > 0 {
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
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.step()
	}
	return len(s.queue) == 0
}

func (s *Simulator) step() {
	var e event
	s.queue, e = popEvent(s.queue)
	if e.at < s.now {
		panic("des: time went backwards")
	}
	s.now = e.at
	s.events++
	if e.p != nil {
		s.activate(e.p)
		return
	}
	e.fn()
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
