// Package marcel models the thread package of a simulated node.
//
// It is named after Marcel, the POSIX-compliant user-level thread library
// underneath both PM2 and MPICH/Madeleine in the paper. The paper's §6
// concludes that the two middleware features that matter most for AIAC
// algorithms are (1) a multi-threaded runtime whose scheduler is *fair* —
// otherwise some sending/receiving threads never run and their
// communications are never performed — and (2) cheap creation of threads on
// demand for message receipt. This package makes both properties explicit
// and tunable so they can be ablated.
//
// Each simulated machine has one CPU (the paper's machines are
// single-processor desktops). Threads consume the CPU through CPU.UseK or
// CPU.ComputeK (task.go); when several threads are runnable the CPU is time-sliced
// round-robin under the fair policy, while the unfair policy always runs the
// most recently enqueued thread first, starving older ones under load.
package marcel

import (
	"fmt"

	"aiac/internal/des"
	"time"
)

// Policy selects how the CPU arbitrates between runnable threads.
type Policy int

const (
	// Fair is round-robin with a fixed quantum. A newcomer on a busy CPU
	// preempts the running charge, so a charge dispatched at the very
	// instant a lone newcomer arrives goes back to the queue before it has
	// run: a thread that resubmits a charge of at most a quantum the
	// moment its last one completes starves the other.
	Fair Policy = iota
	// Unfair is LIFO: the most recently arrived request preempts the
	// queue order, so under a steady arrival stream old requests starve.
	Unfair
)

func (p Policy) String() string {
	switch p {
	case Fair:
		return "fair"
	case Unfair:
		return "unfair"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// DefaultQuantum is the round-robin time slice. It only matters under
// contention; a lone runnable thread runs to completion of its request in a
// single event.
const DefaultQuantum = 2 * time.Millisecond

// DefaultThreadSpawnCost is the CPU time charged to create a thread on
// demand (stack allocation + scheduler registration in a 2004 user-level
// thread package). A middleware that creates a thread per message charges
// it, as CPU.SpawnCost, to the thread before the thread does anything else
// (envcore's handler threads).
const DefaultThreadSpawnCost = 30 * time.Microsecond

// CPU is a single simulated processor shared by the threads of one node.
type CPU struct {
	sim         *des.Simulator
	name        string
	SpeedMFlops float64 // compute rate, millions of flops per second
	Policy      Policy
	Quantum     des.Time
	SpawnCost   des.Time

	queue   des.FIFO[*request] // runnable, excluding current
	current *request
	genSeq  uint64     // generation of the latest slice; only ever grows
	free    []*request // completed requests, reused by the next charges

	busy      des.Time // accumulated busy time
	lastStart des.Time

	// load is the background-load multiplier (SetBackgroundLoad); 0 or 1
	// means unloaded.
	load float64

	watch func() // see Watch
}

// request is one CPU charge. It is also the des.Handler of its own slice
// completions: dispatch schedules the request itself with the slice's
// generation as the event argument, so a charge builds no closure.
// Completed requests are recycled through CPU.free. A completion event left
// behind by a preempted slice can outlive its request's first life, but it
// can never act on a later one: it carries the generation of its own
// slice, every dispatch takes a fresh generation from the monotonic
// genSeq, and Fire ignores any generation but the request's current one.
type request struct {
	cpu       *CPU
	proc      *des.Proc
	remaining des.Time
	gen       uint64 // generation of the current slice; 0 while not running
}

// NewCPU returns a CPU with the given compute speed and fair scheduling.
func NewCPU(sim *des.Simulator, name string, speedMFlops float64) *CPU {
	if speedMFlops <= 0 {
		panic("marcel: CPU speed must be positive")
	}
	return &CPU{
		sim:         sim,
		name:        name,
		SpeedMFlops: speedMFlops,
		Policy:      Fair,
		Quantum:     DefaultQuantum,
		SpawnCost:   DefaultThreadSpawnCost,
	}
}

// SetBackgroundLoad sets the machine's background-load multiplier: CPU
// requests issued from now on take factor times as long (competing
// processes outside the simulated application — the diurnal load of a
// shared desktop grid). factor 1 restores the unloaded machine. The
// request currently on the CPU is unaffected; the change is
// mutable-at-virtual-time, the CPU-side analogue of netsim.SetLANs.
func (c *CPU) SetBackgroundLoad(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("marcel: background load factor %v < 1", factor))
	}
	c.fireWatch()
	c.load = factor
}

// Watch makes the next submitted charge or background-load change call fn
// first, before it takes effect; nil withdraws it. It tells the owner of a
// spin standing in for the CPU's only charge (Resume) to make it real.
func (c *CPU) Watch(fn func()) { c.watch = fn }

func (c *CPU) fireWatch() {
	if f := c.watch; f != nil {
		c.watch = nil
		f()
	}
}

// RunsAlone reports whether a charge of d submitted now would run at once
// and uncut: no charge waits, and none runs, or the one running was
// dispatched at this instant — the newcomer preempts it before it has run
// (under Fair only if d fits in a quantum; a longer newcomer would share
// the CPU with it slice by slice).
func (c *CPU) RunsAlone(d des.Time) bool {
	return c.queue.Len() == 0 && (c.current == nil ||
		c.lastStart == c.sim.Now() && (c.Policy == Unfair || d <= c.Quantum))
}

// Hold makes the preemption a charge submitted now would make where
// RunsAlone holds: the running charge, if any, goes back to the queue
// unrun, its slice's completion stale, busy time unchanged. Nothing runs
// until Resume.
func (c *CPU) Hold() {
	if cur := c.current; cur != nil {
		cur.gen = 0
		c.current = nil
		c.queue.Push(cur)
	}
}

// Resume stops sp and puts its period in progress on the CPU — idle, or
// holding one charge (Hold) — as the charge p would have submitted when
// the period began: running since then, its completion ordered where that
// submission's was (Spin.ScheduleEnd), the ended periods counted as busy
// time. p must be parked on the continuation the completion resumes.
func (c *CPU) Resume(p *des.Proc, sp *des.Spin) {
	if c.current != nil || c.queue.Len() > 1 {
		panic("marcel: resume on a busy CPU")
	}
	t0, d, n := sp.Lattice()
	r := c.take(p, d)
	c.busy += des.Time(n) * d
	c.current = r
	c.lastStart = t0 + des.Time(n)*d
	c.genSeq++
	r.gen = c.genSeq
	sp.ScheduleEnd(r, r.gen)
	sp.Stop()
}

// submit makes a request for d of CPU time on behalf of p runnable; the
// completion of the charge unparks p.
func (c *CPU) submit(p *des.Proc, d des.Time) {
	c.fireWatch()
	c.enqueue(c.take(p, d))
	if c.current == nil {
		c.dispatch()
	} else if c.Policy == Unfair || c.queue.Len() == 1 {
		// A new runnable thread arrived: cut the current slice short so
		// scheduling decisions happen now rather than at the old
		// completion time. (Under Fair this begins time-slicing; under
		// Unfair the newcomer preempts.)
		c.preempt()
	}
}

// take returns a request for d on behalf of p, recycled when one is free.
func (c *CPU) take(p *des.Proc, d des.Time) *request {
	var r *request
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = &request{cpu: c}
	}
	r.proc, r.remaining = p, d
	return r
}

// ComputeTime converts a flop count into CPU time at this CPU's speed
// without consuming anything (used for estimates and tests).
func (c *CPU) ComputeTime(flops float64) des.Time {
	return des.Time(flops / (c.SpeedMFlops * 1e6) * float64(time.Second))
}

// enqueue makes r runnable — a new request or a partially-run one whose
// slice ended: at the tail under Fair (true round-robin), at the head under
// Unfair (LIFO: the newest arrival, or the hog itself, runs next).
func (c *CPU) enqueue(r *request) {
	if c.Policy == Unfair {
		c.queue.PushFront(r)
		return
	}
	c.queue.Push(r)
}

// preempt stops the current slice, accounts consumed time, and requeues the
// remainder, then redispatches.
func (c *CPU) preempt() {
	cur := c.current
	if cur == nil {
		return
	}
	ran := c.sim.Now() - c.lastStart
	cur.remaining -= ran
	c.busy += ran
	cur.gen = 0 // poison: invalidate its scheduled completion
	c.current = nil
	if cur.remaining <= 0 {
		c.complete(cur)
	} else {
		// The preempted thread resumes after the newcomer that caused
		// the preemption (round-robin under Fair, LIFO under Unfair).
		c.queue.Insert(min(1, c.queue.Len()), cur)
	}
	c.dispatch()
}

// dispatch starts the next request if the CPU is idle.
func (c *CPU) dispatch() {
	if c.current != nil || c.queue.Len() == 0 {
		return
	}
	r := c.queue.Pop()
	c.current = r
	c.lastStart = c.sim.Now()
	slice := r.remaining
	if c.queue.Len() > 0 && c.Policy == Fair && slice > c.Quantum {
		slice = c.Quantum
	}
	c.genSeq++
	r.gen = c.genSeq
	c.sim.AfterHandler(slice, r, r.gen)
}

// Fire is the end of the slice dispatched as generation gen.
//
//lint:hotpath
func (r *request) Fire(gen uint64) {
	c := r.cpu
	if r.gen != gen || c.current != r {
		return // stale completion from a preempted slice
	}
	ran := c.sim.Now() - c.lastStart
	r.remaining -= ran
	c.busy += ran
	c.current = nil
	if r.remaining <= 0 {
		c.complete(r)
	} else {
		c.enqueue(r)
	}
	c.dispatch()
}

// complete resumes the thread whose charge is paid and recycles the
// request. Nothing may read r afterwards: it is released with no thread and
// no live generation, so a use after release fails loudly instead of
// resuming somebody else's thread.
func (c *CPU) complete(r *request) {
	p := r.proc
	r.proc, r.gen = nil, 0
	c.free = append(c.free, r)
	p.Unpark()
}
