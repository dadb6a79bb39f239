// Package aiac implements the paper's core contribution: the AIAC
// (Asynchronous Iterations, Asynchronous Communications) parallel iterative
// algorithm engine, together with its synchronous SISC counterpart used as
// the baseline in every experiment.
//
// The engine is generic along the two axes the paper varies:
//
//   - the problem being iterated (sparse linear system, multisplitting
//     Newton for the non-linear chemical problem) via the Problem interface;
//   - the middleware environment carrying the communications (simulated
//     PM2, MPICH/Madeleine, OmniORB, plain synchronous MPI) via the Comm and
//     Env interfaces.
//
// The asynchronous semantics follow §4.3 of the paper exactly:
//
//   - every processor iterates on its own block using whatever dependency
//     data is currently available — no waiting;
//   - new local values are sent asynchronously after each iteration, but a
//     send to a given destination is skipped (not queued) if the previous
//     send of the same data to the same destination is still in progress;
//   - receipts happen in middleware threads at any time and are incorporated
//     at the next iteration;
//   - global convergence is detected centrally: each processor reports
//     local-convergence *changes* to rank 0 after a persistence threshold of
//     consecutive locally-converged iterations — hardened here with a
//     two-phase confirmation (see StateMsg) — and rank 0 broadcasts a stop
//     signal once every processor has confirmed;
//   - an iteration cap bounds runaway executions.
//
// # The two loops, read in direct style
//
// Run spawns one process per rank on the grid's simulator. A simulated
// process is a chain of continuations (des.SpawnTask): wherever the
// pseudo-code below says "wait", "charge" or "send state", the code in
// run.go hands the rest of the loop to the primitive as a func — the …K
// methods of Comm, Dynamics and marcel.CPU — and returns to the scheduler.
// Read as straight-line code, every rank runs
//
//	reset the endpoint's session; install the data sink:
//	    on data m: copy m.Values into x; note the arrival time and gap of
//	    channel m.Key; mark the rank dirty
//	rank 0 also installs the coordinator as the state sink
//	barrier                        // only the first iteration starts together
//
// and then, in asynchronous mode (Figure 2, §4.3),
//
//	for iter < MaxIters and the stop gate is closed:
//	    if the node crashed since the last look:
//	        wait until it is up; x = x0, channels unheard, dirty
//	        send state if the protocol machine retreats (Rank.StateLost)
//	        if the stop gate opened meanwhile: break
//	    if dirty, or the last residual is not far below Eps:
//	        res, flops = Update(x)            // else reuse the last pair
//	    charge flops to the CPU               // virtual time passes here
//	    record the compute span and the residual
//	    for each (destination, segment) channel of the send plan:
//	        if the previous send on it is still in flight: skip it
//	        else send a snapshot of the segment, asynchronously
//	    if Rank.Step(now, res, heard every channel, fresh?, max gap)
//	        reports a state change (converged, confirmed, retreat, heartbeat):
//	        send state to rank 0
//	capped = the loop ran out of iterations with the gate still closed
//
// where rank 0's coordinator, fed by the state messages, broadcasts stop
// after a grace window once every rank has confirmed. That is what happens
// in virtual time, but the host steps it in runs: iterations that would
// repeat the last one charge nothing while the rank parks on a des.Spin,
// and are folded in at once when something reaches it (runAsync, SPIN.md).
// In synchronous mode (Figure 1)
//
//	for iter < MaxIters:
//	    if the node crashed: wait until it is up; lose state as above
//	    res, flops = Update(x); charge flops; record the compute span
//	    exchange: send every channel's snapshot, one after another, then
//	        wait for one message per dependency channel
//	    global = allreduce-max(res); record the idle span
//	    if global < Eps: mark every block validated, stop
//
// A synchronous rank whose partner crashed or whose message was lost waits
// in the exchange for ever: the event queue drains and the run is reported
// as stalled. An asynchronous rank never waits on a peer.
package aiac

import (
	"aiac/internal/des"
	"aiac/internal/obs"
	"aiac/internal/protocol"
	"aiac/internal/trace"
)

// Mode selects the iteration scheme.
type Mode int

const (
	// Async is the AIAC scheme (Figure 2).
	Async Mode = iota
	// Sync is the SISC scheme (Figure 1): synchronous iterations with a
	// blocking data exchange and a global residual reduction per
	// iteration.
	Sync
)

func (m Mode) String() string {
	if m == Sync {
		return "sync"
	}
	return "async"
}

// Segment is a half-open interval [Lo,Hi) of the global iterate vector.
type Segment struct{ Lo, Hi int }

// Len returns the number of elements in the segment.
func (s Segment) Len() int { return s.Hi - s.Lo }

// DataMsg is a block of freshly computed values arriving from a peer.
type DataMsg struct {
	From   int
	Iter   int
	Key    int
	Lo     int
	Values []float64
}

// StateMsg reports a local-convergence change to the coordinator. It is
// the protocol core's message type verbatim (internal/protocol): the
// two-phase confirmation it carries — converged, then confirmed once every
// dependency channel delivered fresh data — is implemented there, shared
// with the native backend. MaxGap is in protocol.Time nanoseconds, which
// the engine maps one-to-one from virtual time.
type StateMsg = protocol.StateMsg

// Outgoing is a data block to transmit. Values ownership passes to the
// transport (callers must snapshot).
type Outgoing struct {
	To     int
	Key    int // identifies the (destination, segment) send channel
	Iter   int
	Lo     int
	Values []float64
	// Pooled says Values is a snapshot buffer obtained from the
	// environment itself (envcore's Endpoint.Snapshot), which takes it
	// back for reuse once the receiver has incorporated it.
	Pooled bool
}

// Comm is the communication contract a middleware environment offers one
// rank. It captures the feature list of the paper's §6: point-to-point
// communication, asynchronous receipt in threads, and the global operations
// needed by the synchronous baseline and the halting procedure. A method
// that takes virtual time ends in K and receives the caller's continuation,
// which it runs — in the caller's process p — once the operation is over;
// the call must be the last thing its caller does in the current segment.
// envcore.Endpoint is the implementation.
type Comm interface {
	// Rank and Size identify this endpoint.
	Rank() int
	Size() int

	// TrySendData starts an asynchronous send. It returns false — and
	// sends nothing — when the previous send with the same (To, Key) is
	// still in progress (the paper's send-skipping policy).
	TrySendData(p *des.Proc, o Outgoing) bool

	// CanSendData reports whether TrySendData on this channel would
	// accept; it lets the driver skip the value snapshot of a send that
	// would only be discarded. Purely an allocation optimisation: the
	// accept/reject decision is the same one TrySendData makes.
	CanSendData(key int) bool

	// Snapshot copies src into a buffer recycled by the environment; the
	// copy goes out as the Values of an Outgoing with Pooled set, and the
	// environment takes it back once the receiver has incorporated it.
	Snapshot(src []float64) []float64

	// SetDataSink registers the callback invoked by the middleware's
	// receive machinery for every arriving DataMsg.
	SetDataSink(fn func(DataMsg))

	// SetFreeSink registers the callback invoked with the key of each
	// asynchronous send channel of this endpoint the moment CanSendData
	// turns true for it: delivered, dropped, or its rendezvous completed.
	SetFreeSink(fn func(key int))

	// SendStateK reports a convergence-state change to rank 0, then runs
	// k. State messages are never skipped.
	SendStateK(p *des.Proc, st StateMsg, k func())

	// SetStateSink registers the coordinator callback (used on rank 0).
	// The des.Proc is the middleware thread delivering the message, which
	// the coordinator may use to send the stop broadcast.
	SetStateSink(fn func(p *des.Proc, st StateMsg))

	// BroadcastStop tells every rank (including the caller) to halt.
	BroadcastStop(p *des.Proc)

	// Stop returns the gate opened by the stop broadcast.
	Stop() *des.Gate

	// BarrierK runs k once all ranks have reached the barrier.
	BarrierK(p *des.Proc, k func())

	// SyncExchangeK implements the SISC data exchange: it performs the
	// given sends with blocking semantics, waits until nRecv data messages
	// have been received and handed to the data sink, then runs k.
	SyncExchangeK(p *des.Proc, sends []Outgoing, nRecv int, k func())

	// AllreduceMaxK hands k the maximum of v over all ranks, at all ranks.
	AllreduceMaxK(p *des.Proc, v float64, k func(float64))

	// AllreduceSumK hands k the element-wise sums of vs over all ranks, at
	// all ranks. It is the collective behind the distributed dot products
	// of the classical (synchronous) parallel GMRES.
	AllreduceSumK(p *des.Proc, vs []float64, k func([]float64))

	// ResetSession clears per-session state (the stop gate, send-channel
	// bookkeeping) so the environment can be reused across the time steps
	// of the non-linear problem.
	ResetSession()
}

// Env is a middleware environment instantiated over a grid.
type Env interface {
	// Name identifies the environment ("pm2", "mpi/mad", "omniorb4",
	// "sync-mpi").
	Name() string
	// Comm returns the endpoint of rank r.
	Comm(r int) Comm
	// ThreadPolicy describes the send/receive thread configuration
	// (the rows of Table 4).
	ThreadPolicy() string
}

// Problem is one distributed fixed-point problem x = g(x).
type Problem interface {
	// Name identifies the problem for reports.
	Name() string
	// Size returns the global vector length.
	Size() int
	// PartitionBounds returns the nranks+1 ownership boundaries of the
	// iterate vector.
	PartitionBounds(nranks int) []int
	// InitialVector returns x^0. The engine copies it per rank.
	InitialVector() []float64
	// DepsFor returns the global-vector segments rank needs but does not
	// own (its data dependencies, §4.3). Segments must be disjoint,
	// sorted, and exclude the rank's own block.
	DepsFor(rank int, bounds []int) []Segment
	// Update performs one local iteration on the block bounds[rank] ..
	// bounds[rank+1] of x, reading current ghost values in the rest of x
	// and overwriting the block in place. It returns the local residual
	// (max-norm of the block change, Equ. 6) and the flop count to charge
	// to the CPU.
	Update(rank int, bounds []int, x []float64) (residual, flops float64)
}

// Dynamics is the engine-facing view of a grid-dynamics scenario
// (internal/scenario implements it). The engine polls the crash epoch at
// iteration boundaries: an epoch change means "this rank's node crashed and
// restarted since we last looked" — the rank parks until the node is up,
// then loses its state (iterate vector, convergence bookkeeping) and
// resumes from the initial guess, which is what forces the convergence
// detector to re-detect convergence after the perturbation.
type Dynamics interface {
	// Epoch returns the crash count of a rank.
	Epoch(rank int) int
	// WaitUpK runs k in p once the rank's node is up — at once when it
	// already is.
	WaitUpK(p *des.Proc, rank int, k func())
	// WatchEpoch makes the next change of rank's crash epoch call fn
	// first, at the instant of the crash; nil withdraws it.
	WatchEpoch(rank int, fn func())
	// LastEventBefore returns the latest perturbation time at or before
	// t, and whether any perturbation happened by then.
	LastEventBefore(t des.Time) (des.Time, bool)
}

// Config tunes a solve.
type Config struct {
	// Mode selects AIAC (Async) or SISC (Sync).
	Mode Mode
	// Eps is the local convergence threshold on the residual (Equ. 5).
	// Default protocol.DefaultEps.
	Eps float64
	// PersistIters is the number of consecutive locally-converged
	// iterations required before a processor reports local convergence
	// (§4.3's guard against residual oscillation). Default
	// protocol.DefaultPersistIters.
	PersistIters int
	// MaxIters bounds the iterations of every processor (§4.3's guard
	// against non-convergence). Default protocol.DefaultMaxIters.
	MaxIters int
	// StopGrace is a short quiet window the coordinator waits after
	// seeing every processor confirm local convergence (see StateMsg)
	// before broadcasting stop; a retreat arriving in the window cancels
	// the pending stop. With two-phase confirmation this is a cheap
	// backstop against reordering, not the primary safety mechanism.
	// Default protocol.DefaultGrace of virtual time.
	StopGrace des.Time
	// StateHeartbeat makes a processor that has confirmed local
	// convergence re-send its state to the coordinator at this interval
	// until the stop arrives. Under a static grid this is redundant —
	// control messages are never lost — but under grid-dynamics scenarios
	// a partition or crash can swallow a confirmation (or the stop
	// broadcast itself), and without retransmission the centralized
	// detection of §4.3 deadlocks. The coordinator re-broadcasts stop
	// when a heartbeat arrives after it has already stopped. Default
	// protocol.DefaultHeartbeat of virtual time.
	StateHeartbeat des.Time
	// Trace, when non-nil, records execution flow for Figures 1-2.
	Trace *trace.Collector
	// Residuals, when non-nil, records each rank's residual after every
	// iteration (downsampled) plus crash-restart marks, feeding the
	// convergence red-flag detectors (internal/obs). Recording is
	// write-only side state and cannot perturb the simulation.
	Residuals *obs.Residuals
	// Dynamics, when non-nil, is the grid-dynamics scenario perturbing
	// this solve (crash epochs and perturbation times; the network and
	// CPU mutations happen underneath the engine).
	Dynamics Dynamics
}

// protocolParams resolves the protocol tunables — defaults live once, in
// internal/protocol, shared with the native backend.
func (c Config) protocolParams() protocol.Params {
	return protocol.Params{
		Eps:          c.Eps,
		PersistIters: c.PersistIters,
		MaxIters:     c.MaxIters,
		Grace:        protocol.Time(c.StopGrace),
		Heartbeat:    protocol.Time(c.StateHeartbeat),
	}.WithDefaults()
}

func (c Config) withDefaults() Config {
	pp := c.protocolParams()
	c.Eps = pp.Eps
	c.PersistIters = pp.PersistIters
	c.MaxIters = pp.MaxIters
	c.StopGrace = des.Time(pp.Grace)
	c.StateHeartbeat = des.Time(pp.Heartbeat)
	return c
}

// StopReason tells how a run ended.
type StopReason string

const (
	// StopConverged means global convergence was detected and broadcast.
	StopConverged StopReason = "converged"
	// StopIterCap means at least one rank hit MaxIters first.
	StopIterCap StopReason = "iteration-cap"
	// StopStalled means the simulation's event queue drained with at
	// least one rank still blocked — the fate of a synchronous exchange
	// whose partner crashed or whose messages were lost. Asynchronous
	// iterations cannot stall this way: they never block on a peer.
	StopStalled StopReason = "stalled"
)

// Report is the outcome of one engine run.
type Report struct {
	// Elapsed is the virtual wall-clock of the solve: from the post-
	// barrier start to the instant the last rank finished.
	Elapsed des.Time
	// Start and End are the absolute virtual times of the run.
	Start, End des.Time
	// X is the assembled final iterate (each rank's own block).
	X []float64
	// ItersPerRank counts the local iterations each rank performed —
	// under AIAC these differ (heterogeneous machines iterate at their
	// own pace); under SISC they are equal.
	ItersPerRank []int
	// Reason tells whether the run converged or hit the cap.
	Reason StopReason
	// StateMsgs counts convergence-state messages received by the
	// coordinator (§4.3: several per rank are possible because local
	// convergence may oscillate).
	StateMsgs int
	// Stalled reports that at least one rank never finished (see
	// StopStalled); Elapsed then measures up to the last simulated event.
	Stalled bool
	// Reconverge is the time from the last scenario perturbation the run
	// experienced to the end of a converged run — how long the algorithm
	// needed to re-detect convergence after the grid stopped changing
	// underneath it. Zero for static runs and runs that did not converge.
	Reconverge des.Time
	// Restarts counts rank crash/restart cycles observed during the run.
	Restarts int
	// TaintedRestarts counts ranks that finished with an unvalidated
	// block: they lost their state in a crash and the stop arrived before
	// they re-confirmed local convergence (the stop decision raced with
	// the crash). A converged run with TaintedRestarts > 0 carries at
	// least one block that may be far from the fixed point.
	TaintedRestarts int
	// Heartbeats counts confirmed-state re-sends across all ranks,
	// StopRebroadcasts the coordinator's post-stop stop repeats, and
	// ReconfirmRounds the post-state-loss re-confirmations — the protocol
	// observability counters (protocol.Counters), persisted in BENCH
	// files so a protocol regression is visible even when timing is not.
	Heartbeats       int
	StopRebroadcasts int
	ReconfirmRounds  int
	// Protocol records the resolved protocol constants that produced this
	// run (grace window, heartbeat interval, persistence threshold).
	Protocol protocol.Params
}

// TotalIters sums ItersPerRank.
func (r *Report) TotalIters() int {
	t := 0
	for _, n := range r.ItersPerRank {
		t += n
	}
	return t
}

// SendPlan precomputes who sends what to whom: for each rank, the list of
// outgoing (destination, segment) channels, derived by intersecting every
// other rank's dependency list with this rank's block.
type SendPlan struct {
	// Targets[r] lists the sends rank r performs each iteration.
	Targets [][]PlanTarget
	// RecvCount[r] is the number of data messages rank r receives per
	// complete exchange (used by the synchronous mode).
	RecvCount []int
	// FirstKey[r] is the key of rank r's first dependency channel: its
	// channels are the RecvCount[r] consecutive keys from there.
	FirstKey []int
}

// PlanTarget is one (destination, segment) send channel.
type PlanTarget struct {
	To  int
	Key int
	Seg Segment
}

// BuildSendPlan derives the communication plan from the problem's
// dependency lists (§4.3: "the first step of the algorithm consists in
// computing the dependencies on each processor and communicating them to
// all others").
func BuildSendPlan(prob Problem, bounds []int) *SendPlan {
	nranks := len(bounds) - 1
	plan := &SendPlan{
		Targets:   make([][]PlanTarget, nranks),
		RecvCount: make([]int, nranks),
		FirstKey:  make([]int, nranks),
	}
	key := 0
	for consumer := 0; consumer < nranks; consumer++ {
		plan.FirstKey[consumer] = key
		for _, dep := range prob.DepsFor(consumer, bounds) {
			// Split the dependency segment by owner.
			for owner := 0; owner < nranks; owner++ {
				lo, hi := bounds[owner], bounds[owner+1]
				slo, shi := max(dep.Lo, lo), min(dep.Hi, hi)
				if slo >= shi || owner == consumer {
					continue
				}
				plan.Targets[owner] = append(plan.Targets[owner], PlanTarget{
					To:  consumer,
					Key: key,
					Seg: Segment{slo, shi},
				})
				plan.RecvCount[consumer]++
				key++
			}
		}
	}
	return plan
}
