package aiac

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"aiac/internal/obs"
	"aiac/internal/protocol"
)

// Kind names what a rank's Loop asks its driver to do next.
type Kind uint8

const (
	// Compute: the iteration's Update is done (or, with Reused, its
	// converged residual reused); charge Flops, then call Next.
	Compute Kind = iota
	// Send: send a snapshot of SendPlan.Targets[rank][Target]'s segment of
	// X asynchronously — the channel is free — then call Next.
	Send
	// Exchange: the synchronous exchange — send every target's segment,
	// wait for one message per dependency channel — then call Next.
	Exchange
	// Allreduce: hand the maximum of V over all ranks to Reduced.
	Allreduce
	// SendState: send State to the coordinator, then call Next.
	SendState
	// Yield: an asynchronous iteration ended with no state to send. A
	// driver whose data sink runs concurrently with the Loop lets it in
	// now, so that what arrives feeds the next Update rather than the
	// freshness check of the iteration that just ended; then call Next.
	Yield
	// Recover: the rank's node crashed; once it is up, call Restart.
	Recover
	// Exit: the rank is done.
	Exit
)

// Action is a Loop's next request, returned by value.
type Action struct {
	Kind   Kind
	Flops  float64           // Compute
	Reused bool              // Compute: nothing was recomputed
	Target int               // Send
	V      float64           // Allreduce
	State  protocol.StateMsg // SendState
}

// Port is what a Loop asks its driver about the world outside the rank.
type Port interface {
	// Stopped reports whether the stop broadcast arrived (or the run was
	// abandoned).
	Stopped() bool
	// CanSend reports whether the send channel to Targets[rank][i] is free:
	// its previous send has terminated.
	CanSend(i int) bool
	// Crashed reports whether the rank's node crashed since the rank last
	// (re)started.
	Crashed() bool
}

// stage is where a Loop stands between two actions.
type stage uint8

const (
	top       stage = iota // an iteration boundary
	body                   // the iteration starts
	computed               // Compute charged
	sending                // async: offering the send channels
	exchanged              // sync: the exchange is over
	reducing               // sync: waiting for Reduced
	lost                   // Restart done; report the state loss
	resumed                // the state loss reported
	halted                 // sync: the reduction validated every block
)

// skipFactor bounds the residual reuse: a rank that has reached its local
// fixed point (residual below Eps·skipFactor) and has received no new
// dependency data since its last Update would recompute values identical
// to within the drift floor, so it reuses the pair instead. The driver
// still charges the iteration — the paper's processors "keep on computing"
// — and nothing observable above the eps scale changes.
const skipFactor = 1e-2

// A Loop is one rank's AIAC (or SISC) iteration as a machine without I/O:
// no clock, goroutine or transport. It owns the iterate, the per-channel
// arrival table, the residual reuse, the send-skip choice, the rank's
// protocol.Rank and so the freshness gate, and the exit rule. A driver
// runs the actions Next returns on its own clock and feeds the rank's
// inbound data to Incorporate; see the package doc.
//
// The iterate is the rank's window (Problem.Update): the segments of the
// global vector its Update reads, its own block among them, laid end to
// end — the whole vector when the problem states no window.
//
// Next, Incorporate, Restart, Spin, Values and NewReport first join the
// Update that Run overlapped (overlap.go), so an Update reads and writes
// at its issue instant, as if it ran inline.
type Loop struct {
	rank    int
	mode    Mode
	p       protocol.Params
	prob    Problem
	bounds  []int
	targets []PlanTarget
	port    Port
	resid   *obs.Residuals
	rk      *protocol.Rank

	// The iterate: x lays the window's segments win end to end. The own
	// block [lo,hi) sits at x[lo−own:hi−own], and dependency channel i's
	// segment from x[recvAt[i]] on. x0 is the whole initial vector.
	x, x0  []float64
	win    []Segment
	lo, hi int
	own    int
	recvAt []int

	// The arrival table, indexed by channel key − SendPlan.FirstKey.
	firstKey    int
	heard       []bool
	heardCount  int
	lastArrival []protocol.Time
	maxGap      protocol.Time
	dirty       bool // data arrived since the last Update

	stage             stage
	iter, iters, next int
	res               float64
	lastRes           float64
	lastFlops         float64
	capped            bool
	nonFinite         bool // an Update's residual was NaN or infinite
	restarts          int

	// The overlapped Update (overlap.go): a nil ov runs every one inline.
	ov          *helper
	stated      float64 // UpdateFlops, what every Update charges
	pending     bool    // issued to ov, not joined yet
	queued      atomic.Bool
	done        chan any // the helper ran it; non-nil: its panic
	fres, flops float64  // what the issued Update returned
}

// NewLoop returns rank's loop, starting from a copy of x0 over the rank's
// window: the one its problem states, or the whole vector. Every channel's
// offset in the window comes from plan here, once.
func NewLoop(rank int, cfg Config, prob Problem, bounds []int, plan *SendPlan, x0 []float64, port Port) *Loop {
	pp := cfg.Params()
	recv := plan.Recv[rank]
	win := []Segment{{0, len(x0)}}
	if w, ok := prob.(windowed); ok {
		win = w.Window(rank, bounds)
	}
	l := &Loop{
		rank: rank, mode: cfg.Mode, p: pp, prob: prob, bounds: bounds,
		targets: plan.Targets[rank], port: port, resid: cfg.Residuals,
		rk: protocol.NewRank(rank, pp), x0: x0, win: win,
		lo: bounds[rank], hi: bounds[rank+1], recvAt: make([]int, len(recv)),
		firstKey: plan.FirstKey[rank], heard: make([]bool, len(recv)), lastArrival: make([]protocol.Time, len(recv)),
		dirty: true,
	}
	l.own = l.lo - l.offset(Segment{l.lo, l.hi})
	for i, seg := range recv {
		l.recvAt[i] = l.offset(seg)
	}
	n := 0
	for _, w := range win {
		n += w.Len()
	}
	l.x = make([]float64, n)
	l.gather()
	return l
}

// offset is where seg starts in the window; it must lie in one segment.
func (l *Loop) offset(seg Segment) int {
	at := 0
	for _, w := range l.win {
		if w.Lo <= seg.Lo && seg.Hi <= w.Hi {
			return at + seg.Lo - w.Lo
		}
		at += w.Len()
	}
	panic(fmt.Sprintf("aiac: rank %d's window %v does not hold segment %v in one piece", l.rank, l.win, seg))
}

// gather copies the window's segments of x0 into the iterate.
func (l *Loop) gather() {
	at := 0
	for _, w := range l.win {
		at += copy(l.x[at:], l.x0[w.Lo:w.Hi])
	}
}

// Values is the rank's current values of seg, a segment of its own block
// (a send target's), as a view into the iterate. The own block changes
// only in Next and Restart, so a driver may read it between actions
// without holding off Incorporate, which writes the other ranks' segments.
//
//lint:hotpath
func (l *Loop) Values(seg Segment) []float64 {
	l.join()
	if seg.Lo < l.lo || seg.Hi > l.hi || seg.Lo > seg.Hi {
		panic("aiac: Loop.Values of a segment outside the rank's block")
	}
	return l.x[seg.Lo-l.own : seg.Hi-l.own]
}

// NonFinite reports whether the rank exited on a non-finite Update
// residual. Run and the native backend then end the solve for every rank,
// and the report says StopNonFinite.
func (l *Loop) NonFinite() bool { return l.nonFinite }

// Iter is the index of the iteration in progress.
func (l *Loop) Iter() int { return l.iter }

// Next advances the machine to its next action at driver time now.
func (l *Loop) Next(now protocol.Time) Action {
	l.join()
	for {
		switch l.stage {
		case top:
			stop := l.port.Stopped()
			if l.iter >= l.p.MaxIters || stop {
				l.capped = !stop
				return Action{Kind: Exit}
			}
			if l.port.Crashed() {
				return Action{Kind: Recover}
			}
			l.stage = body
		case body:
			// Update, or reuse the converged residual of an async rank that
			// heard nothing new.
			l.stage = computed
			if l.mode == Sync || l.dirty || l.lastRes >= l.p.Eps*skipFactor {
				l.dirty = false
				if l.ov != nil && l.issue() {
					l.lastFlops = l.stated
					return Action{Kind: Compute, Flops: l.stated}
				}
				l.res, l.lastFlops = l.prob.Update(l.rank, l.bounds, l.x)
				l.lastRes = l.res
				return Action{Kind: Compute, Flops: l.lastFlops}
			}
			l.res = l.lastRes
			return Action{Kind: Compute, Flops: l.lastFlops, Reused: true}
		case computed:
			l.iters++
			l.resid.Record(l.rank, seconds(now), l.res)
			if math.IsNaN(l.res) || math.IsInf(l.res, 0) {
				// A non-finite residual never converges, and the data
				// that produced it spreads: the rank exits, and the
				// solve ends (NonFinite).
				l.nonFinite = true
				l.stage = halted
				return Action{Kind: Exit}
			}
			if l.mode == Sync {
				l.stage = exchanged
				return Action{Kind: Exchange}
			}
			l.stage, l.next = sending, 0
		case sending:
			// §4.3: a send is skipped, not queued, while the previous send
			// on its channel is still in flight.
			for l.next < len(l.targets) {
				i := l.next
				l.next++
				if l.port.CanSend(i) {
					return Action{Kind: Send, Target: i}
				}
			}
			// Local convergence is the protocol machine's call:
			// persistence, then two-phase confirmation, then heartbeats.
			l.stage = top
			l.iter++
			if st, ok := l.rk.Step(now, l.res, l.heardAll(), l.heardSince, l.maxGap); ok {
				return Action{Kind: SendState, State: st}
			}
			return Action{Kind: Yield}
		case exchanged:
			l.stage = reducing
			return Action{Kind: Allreduce, V: l.res}
		case lost:
			l.stage = resumed
			// A sync rank never confirms, so it never has a retreat to send.
			if st, ok := l.rk.StateLost(l.maxGap); ok {
				return Action{Kind: SendState, State: st}
			}
		case resumed:
			l.lastRes, l.lastFlops = 0, 0
			if l.port.Stopped() {
				return Action{Kind: Exit}
			}
			l.stage = body
		case halted:
			return Action{Kind: Exit}
		default:
			panic("aiac: Loop.Next while an Allreduce is outstanding")
		}
	}
}

// Reduced resumes an Allreduce with the global maximum. Below Eps it
// validates every block, a restarted one included, and the rank exits.
func (l *Loop) Reduced(global float64) {
	if global < l.p.Eps {
		l.rk.Validate()
		l.stage = halted
		return
	}
	l.stage = top
	l.iter++
}

// Incorporate is the rank's data sink: the values of channel key's
// segment arrived at now.
//
//lint:hotpath
func (l *Loop) Incorporate(key int, values []float64, now protocol.Time) {
	l.join()
	i := key - l.firstKey
	copy(l.x[l.recvAt[i]:][:len(values)], values)
	if l.heard[i] {
		if gap := now - l.lastArrival[i]; gap > l.maxGap {
			l.maxGap = gap
		}
	} else {
		l.heard[i] = true
		l.heardCount++
	}
	l.lastArrival[i] = now
	l.dirty = true
}

// Restart answers Recover at driver time now: the rank lost its state —
// iterate back to x0, own block and ghosts, every channel unheard — and
// the next Next reports the loss to the protocol machine.
func (l *Loop) Restart(now protocol.Time) {
	l.join()
	l.restarts++
	l.resid.MarkRestart(l.rank, seconds(now))
	l.gather()
	clear(l.heard)
	l.heardCount = 0
	clear(l.lastArrival)
	l.maxGap = 0
	l.dirty = true
	l.stage = lost
}

// Quiet reports whether iterations that repeat the last one — reused
// residual, every send channel busy — would only count the protocol
// machine's streak, and until when (protocol.Rank.Quiet); a driver may
// then fold n of them into Spin.
func (l *Loop) Quiet() (hb protocol.Time, beats, quiet bool) {
	for i := range l.targets {
		if l.port.CanSend(i) {
			return 0, false, false
		}
	}
	return l.rk.Quiet(l.heardAll())
}

// Spin folds n quiet iterations, ending at first+d, first+2d, …, into the
// loop while a Compute is in progress.
func (l *Loop) Spin(first, d protocol.Time, n int) {
	l.join()
	l.iters += n
	l.resid.RecordRun(l.rank, n, func(i int) float64 { return seconds(first + protocol.Time(i+1)*d) }, l.res)
	l.rk.Spin(n)
	l.iter += n
}

func (l *Loop) heardAll() bool { return l.heardCount == len(l.heard) }

// heardSince is the freshness gate: every dependency channel delivered
// after t.
func (l *Loop) heardSince(t protocol.Time) bool {
	if !l.heardAll() {
		return false
	}
	for _, at := range l.lastArrival {
		if at <= t {
			return false
		}
	}
	return true
}

// seconds converts driver time the way des.Time does.
func seconds(t protocol.Time) float64 { return time.Duration(t).Seconds() }

// NewReport assembles what every driver reports alike — the iterate, the
// counters and the stop reason — from a run's loops and coordinator;
// stalled says the driver saw a rank that never finished.
func NewReport(loops []*Loop, coord *protocol.Coordinator, stalled bool) Report {
	rep := Report{
		X:                make([]float64, len(loops[0].x0)),
		ItersPerRank:     make([]int, len(loops)),
		Reason:           StopIterCap,
		StateMsgs:        coord.Msgs(),
		StopRebroadcasts: coord.Rebroadcasts(),
		Stalled:          stalled,
		Protocol:         loops[0].p,
	}
	stopped, capped, nonFinite := coord.Stopped(), false, false
	for r, l := range loops {
		l.join()
		copy(rep.X[l.lo:l.hi], l.Values(Segment{l.lo, l.hi}))
		rep.ItersPerRank[r] = l.iters
		rep.Restarts += l.restarts
		if l.rk.NeedReconfirm() {
			rep.TaintedRestarts++
		}
		rep.Heartbeats += l.rk.Heartbeats()
		rep.ReconfirmRounds += l.rk.Reconfirms()
		stopped = stopped || l.stage == halted
		capped = capped || l.capped
		nonFinite = nonFinite || l.nonFinite
	}
	switch {
	case nonFinite:
		rep.Reason = StopNonFinite
	case stalled:
		rep.Reason = StopStalled
	case stopped && !capped:
		rep.Reason = StopConverged
	}
	return rep
}
