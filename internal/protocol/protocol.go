// Package protocol is the runtime-agnostic core of the hardened AIAC
// convergence protocol — the single implementation shared by every
// execution backend of the repository.
//
// The paper's §4.3 describes one algorithm: processors iterate on local
// blocks with whatever dependency data is available, report local
// convergence *changes* to a central coordinator, and halt on the
// coordinator's stop broadcast. This package implements that algorithm,
// hardened the way the grid-dynamics and native-execution work required:
//
//   - a per-rank two-phase confirmation state machine (Rank): local
//     convergence must persist for PersistIters iterations, then survive a
//     fresh message on every dependency channel, before it is confirmed to
//     the coordinator — closing the premature-termination hazard of
//     centralized detection over FIFO channels;
//   - a coordinator state machine (Coordinator): confirmation counting, a
//     grace window guarded by a cancellation generation, the stop
//     broadcast, and post-stop heartbeat re-answering so a perturbation
//     that swallowed the stop cannot strand a rank at its iteration cap;
//   - crash/state-loss bookkeeping (Rank.StateLost and the needReconfirm
//     flag): a restarted rank retreats if the coordinator held its
//     confirmation, and a rank still unvalidated when the stop arrives is
//     reported as a tainted restart;
//   - a no-progress stall detector (StallGuard) for drivers whose clock
//     cannot stop on its own (a deadlocked wall-clock run would otherwise
//     hang forever).
//
// The package is deliberately runtime-free: no discrete-event simulator, no
// wall clocks, no goroutines, no transports. Time is an opaque monotonic
// nanosecond count (Time); timers and message delivery are supplied by the
// driver through the CoordinatorRuntime interface. One caller steps Rank:
// internal/aiac's Loop, which the simulator runs on virtual time over the
// simulated middlewares and internal/backend on wall clocks over real
// transports — which is what makes the cross-backend comparison a
// comparison of runtimes rather than of two hand-synchronized protocol
// copies.
package protocol

import "sync"

// Time is a monotonic instant or duration in nanoseconds. Drivers map it to
// their own clock: the simulated engine uses virtual time (des.Time), the
// native backend wall time (time.Duration since start). Both are int64
// nanosecond counts, so the conversions are value-preserving.
type Time int64

// Seconds returns the value in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// The protocol constants, defined once for every backend. A sweep's BENCH
// file records the values that produced it (report.Result), so a default
// change is visible in the data, not silent.
const (
	// DefaultEps is the local convergence threshold on the residual
	// (Equ. 5).
	DefaultEps = 1e-8
	// DefaultPersistIters is the consecutive locally-converged iterations
	// required before a rank enters the two-phase confirmation (§4.3's
	// guard against residual oscillation).
	DefaultPersistIters = 3
	// DefaultMaxIters bounds every rank's iterations (§4.3's guard
	// against non-convergence).
	DefaultMaxIters = 1000000
	// DefaultGrace is the coordinator's quiet window between seeing every
	// rank confirmed and broadcasting stop. With two-phase confirmation it
	// is a cheap backstop against reordering, not the primary safety
	// mechanism.
	DefaultGrace Time = 1e6 // 1ms
	// DefaultHeartbeat is the interval at which a confirmed rank re-sends
	// its state until the stop arrives. Under a static grid this is
	// redundant — control messages are never lost — but under perturbation
	// a partition or crash can swallow a confirmation (or the stop
	// broadcast itself), and without retransmission the centralized
	// detection deadlocks.
	DefaultHeartbeat Time = 500e6 // 500ms
)

// Params are the tunables of the convergence protocol. The zero value of
// each field selects the package default, so both drivers resolve missing
// configuration to the same constants.
type Params struct {
	// Eps is the local convergence threshold on the residual.
	Eps float64
	// PersistIters is the persistence threshold before phase 1.
	PersistIters int
	// MaxIters bounds each rank's iterations.
	MaxIters int
	// Grace is the coordinator's pre-stop quiet window.
	Grace Time
	// Heartbeat is the confirmed-state re-send interval.
	Heartbeat Time
}

// WithDefaults resolves zero fields to the package defaults.
func (p Params) WithDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = DefaultEps
	}
	if p.PersistIters <= 0 {
		p.PersistIters = DefaultPersistIters
	}
	if p.MaxIters <= 0 {
		p.MaxIters = DefaultMaxIters
	}
	if p.Grace <= 0 {
		p.Grace = DefaultGrace
	}
	if p.Heartbeat <= 0 {
		p.Heartbeat = DefaultHeartbeat
	}
	return p
}

// StateMsg reports a local-convergence change to the coordinator.
//
// A processor that reaches local convergence does not tell the coordinator
// immediately — it first waits until it has received at least one *fresh*
// message on every dependency channel (sent after it converged) while
// remaining converged, and only then reports Converged=true ("confirmed").
// Because the per-pair channels are FIFO, a confirmation guarantees no
// older (staler) data is still in flight towards this processor. A residual
// bump at any point sends Converged=false and restarts the phase machine.
type StateMsg struct {
	From      int
	Converged bool
	Seq       int
	// MaxGap is the longest interval this processor observed between
	// consecutive data arrivals on any dependency channel (diagnostic; it
	// bounds the confirmation delay).
	MaxGap Time
}

// Counters are the protocol observability counters of one run, aggregated
// across ranks and coordinator. They are cheap, deterministic under a
// deterministic runtime, and persisted in BENCH files so a protocol
// regression (a heartbeat storm, a rebroadcast loop, a vanished reconfirm)
// fails the CI diff even when the timing happens to survive.
type Counters struct {
	// StateMsgs counts state messages the coordinator received, including
	// post-stop ones.
	StateMsgs int
	// Heartbeats counts confirmed-state re-sends across all ranks.
	Heartbeats int
	// StopRebroadcasts counts the coordinator's post-stop stop repeats.
	StopRebroadcasts int
	// ReconfirmRounds counts post-state-loss re-confirmations: a rank that
	// crashed, lost its state, and re-entered phase 2.
	ReconfirmRounds int
}

// Rank is the per-rank two-phase confirmation state machine.
//
// Phases: 0 = not locally converged, 1 = converged but unconfirmed, 2 =
// confirmed to the coordinator. The driver folds one completed iteration at
// a time through Step; the machine answers with the state message to send,
// if any. The machine never talks to a wire itself — sending is the
// driver's job, which is what keeps it identical across runtimes.
type Rank struct {
	id int
	p  Params

	streak      int
	seq         int
	phase       int
	convergedAt Time
	lastStateAt Time

	// needReconfirm is set on a post-crash state loss and cleared when the
	// rank re-confirms local convergence (or a synchronous global
	// reduction validates every block); a rank still flagged when the stop
	// arrives finished with an unvalidated block.
	needReconfirm bool

	heartbeats int
	reconfirms int
}

// NewRank returns the machine for rank id. Params must already be resolved
// (WithDefaults).
func NewRank(id int, p Params) *Rank {
	return &Rank{id: id, p: p}
}

// Step folds one completed local iteration into the machine. res is the
// iteration's residual; heardAll reports whether every dependency channel
// has delivered at least once; fresh reports whether every dependency
// channel has delivered a message after the given instant (it is consulted
// only while the machine awaits confirmation, so drivers may keep it
// lazily expensive); maxGap is the diagnostic forwarded to the
// coordinator. The returned message, when ok, must be sent to the
// coordinator — state messages are never skipped.
func (r *Rank) Step(now Time, res float64, heardAll bool, fresh func(since Time) bool, maxGap Time) (st StateMsg, ok bool) {
	// NaN never converges: a poisoned residual must not enter the streak.
	if res < r.p.Eps && res == res {
		r.streak++
	} else {
		r.streak = 0
	}
	conv := r.streak >= r.p.PersistIters && heardAll
	switch {
	case !conv:
		if r.phase == 2 {
			// Retreat: tell the coordinator we are no longer converged.
			r.phase = 0
			r.lastStateAt = now
			return r.emit(false, maxGap), true
		}
		r.phase = 0
	case r.phase == 0:
		r.phase = 1
		r.convergedAt = now
	case r.phase == 1 && fresh(r.convergedAt):
		// Confirmed: every channel has delivered data sent after we
		// converged and the residual stayed below eps.
		r.phase = 2
		if r.needReconfirm {
			r.needReconfirm = false
			r.reconfirms++
		}
		r.lastStateAt = now
		return r.emit(true, maxGap), true
	case r.phase == 2 && now-r.lastStateAt >= r.p.Heartbeat:
		// Heartbeat: re-announce the confirmation in case a perturbation
		// swallowed it — or swallowed the coordinator's stop broadcast,
		// which the coordinator repeats on hearing a post-stop heartbeat.
		r.heartbeats++
		r.lastStateAt = now
		return r.emit(true, maxGap), true
	}
	return StateMsg{}, false
}

// Quiet reports whether Steps fed a residual below Eps and unchanged
// heardAll and freshness answers would only count the streak — the rank
// awaits a channel never heard, a fresh message (only an arrival opens the
// gate), or the stop — so that a driver may replace n of them by Spin(n),
// none taken at or after hb when beats (a confirmed rank's heartbeat).
func (r *Rank) Quiet(heardAll bool) (hb Time, beats, quiet bool) {
	switch r.phase {
	case 2:
		return r.lastStateAt + r.p.Heartbeat, true, true
	case 1:
		return 0, false, true
	}
	return 0, false, !heardAll
}

// Spin folds n quiet Steps (see Quiet) into the machine at once.
func (r *Rank) Spin(n int) { r.streak += n }

// StateLost records a crash/restart with state loss: the iterate went back
// to the initial guess, so everything the coordinator knew about this rank
// is stale. The machine marks the rank as needing re-confirmation and, when
// the coordinator held its confirmation (phase 2), returns the retreat
// message to send. The driver performs the actual state reset (iterate
// vector, arrival bookkeeping) — the machine only owns the protocol state.
func (r *Rank) StateLost(maxGap Time) (st StateMsg, ok bool) {
	r.needReconfirm = true
	confirmed := r.phase == 2
	r.streak, r.phase = 0, 0
	if confirmed {
		return r.emit(false, maxGap), true
	}
	return StateMsg{}, false
}

// Validate clears the re-confirmation debt without a confirmation message —
// the synchronous mode's path, where a global residual reduction below eps
// validates every block at once, including a restarted one.
func (r *Rank) Validate() {
	if r.needReconfirm {
		r.needReconfirm = false
		r.reconfirms++
	}
}

// NeedReconfirm reports whether the rank still carries an unvalidated
// post-crash block (see Report.TaintedRestarts in the drivers).
func (r *Rank) NeedReconfirm() bool { return r.needReconfirm }

// Heartbeats returns the number of heartbeat re-sends this rank performed.
func (r *Rank) Heartbeats() int { return r.heartbeats }

// Reconfirms returns the number of post-state-loss re-confirmations.
func (r *Rank) Reconfirms() int { return r.reconfirms }

func (r *Rank) emit(converged bool, maxGap Time) StateMsg {
	r.seq++
	return StateMsg{From: r.id, Converged: converged, Seq: r.seq, MaxGap: maxGap}
}

// CoordinatorRuntime is what a driver supplies to the coordinator: a
// one-shot timer and the stop broadcast. The simulated engine implements it
// on the DES scheduler and the middleware's broadcast; the native backend
// on wall-clock timers and transport sends.
type CoordinatorRuntime interface {
	// AfterGrace schedules f to run once after Params.Grace and returns a
	// cancel function (a no-op cancel is fine for runtimes whose timers
	// cannot be withdrawn — the callback re-checks the machine's state).
	AfterGrace(f func()) (cancel func())
	// BroadcastStop tells every rank to halt. Called for the armed stop
	// and for every post-stop rebroadcast.
	BroadcastStop()
}

// Coordinator implements the centralized global convergence detection of
// §4.3, hardened with a cancellation generation for the grace window and
// post-stop heartbeat re-answering. All methods are safe for concurrent use
// — wall-clock drivers deliver state messages from receive threads — and
// the runtime's callbacks are always invoked outside the internal lock.
type Coordinator struct {
	mu sync.Mutex
	rt CoordinatorRuntime
	p  Params
	n  int

	conv    []bool
	count   int
	msgs    int
	stopped bool
	gen     int  // bumped on every retreat to invalidate pending stops
	maxGap  Time // largest data inter-arrival gap reported by any rank

	rebroadcasts int
	cancelGrace  func()
}

// NewCoordinator returns the coordinator for n ranks. Params must already
// be resolved (WithDefaults).
func NewCoordinator(n int, p Params, rt CoordinatorRuntime) *Coordinator {
	return &Coordinator{rt: rt, p: p, n: n, conv: make([]bool, n)}
}

// Reset clears per-session state so the coordinator can be reused across
// the time steps of the non-linear problem. The cancellation generation
// advances, invalidating any stop still pending from the previous session.
func (c *Coordinator) Reset() {
	c.mu.Lock()
	for i := range c.conv {
		c.conv[i] = false
	}
	c.count = 0
	c.stopped = false
	c.gen++
	c.maxGap = 0
	c.mu.Unlock()
}

// OnState folds one state message into the coordinator. A message arriving
// after the stop means its sender missed the broadcast (a perturbation
// swallowed it): the coordinator repeats the stop rather than letting that
// rank run to its iteration cap. When the last missing confirmation
// arrives, the delayed stop is armed through the runtime's grace timer; a
// retreat arriving inside the window cancels it via the generation check.
func (c *Coordinator) OnState(st StateMsg) {
	c.mu.Lock()
	c.msgs++
	if c.stopped {
		c.rebroadcasts++
		c.mu.Unlock()
		c.rt.BroadcastStop()
		return
	}
	if st.MaxGap > c.maxGap {
		c.maxGap = st.MaxGap
	}
	if c.conv[st.From] == st.Converged {
		c.mu.Unlock()
		return // duplicate (heartbeat)
	}
	c.conv[st.From] = st.Converged
	if !st.Converged {
		c.count--
		c.gen++
		c.mu.Unlock()
		return
	}
	c.count++
	if c.count < c.n {
		c.mu.Unlock()
		return
	}
	// Every processor has *confirmed* local convergence (fresh data on all
	// channels, still converged). A short quiet window guards against
	// reordering, then stop. AfterGrace is called outside the lock — a
	// runtime may legally run the callback inline — and the callback
	// re-checks the generation, so a retreat racing with the arm (or a
	// callback firing before the cancel handle is recorded) stays safe.
	gen := c.gen
	c.mu.Unlock()
	cancel := c.rt.AfterGrace(func() {
		c.mu.Lock()
		fire := c.gen == gen && c.count == c.n && !c.stopped
		if fire {
			c.stopped = true
		}
		c.mu.Unlock()
		if fire {
			c.rt.BroadcastStop()
		}
	})
	c.mu.Lock()
	c.cancelGrace = cancel
	c.mu.Unlock()
}

// Stopped reports whether the stop decision has been made.
func (c *Coordinator) Stopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// Msgs returns the number of state messages received.
func (c *Coordinator) Msgs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs
}

// Rebroadcasts returns the number of post-stop stop repeats.
func (c *Coordinator) Rebroadcasts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebroadcasts
}

// Close withdraws a pending grace timer, for drivers whose timers outlive
// the run (wall clocks). Safe to call at any point after the run ends.
func (c *Coordinator) Close() {
	c.mu.Lock()
	cancel := c.cancelGrace
	c.cancelGrace = nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
