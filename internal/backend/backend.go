// Package backend runs AIAC solves natively — goroutine ranks exchanging
// messages over an internal/transport wire in wall-clock time — as a full
// peer of the simulated stack (internal/aiac on internal/des): both Async
// and Sync modes, any aiac.Problem, and the *same* hardened convergence
// protocol, because both drive the shared state machines of
// internal/protocol rather than carrying an implementation of their own.
//
// The paper's §6 lists what a programming environment needs for efficient
// AIAC implementations: blocking point-to-point communication, a
// multi-threaded runtime with a fair scheduler, receptions handled in
// threads activated on demand, and a mutex system. Go provides every item
// natively, and this package is the repository's demonstration: goroutines
// as ranks, a sender goroutine per send-plan channel implementing the
// "send only if the previous send has terminated" policy over the
// transport's blocking Send, transport receive goroutines incorporating
// data under a per-rank mutex, and the Go scheduler as the fair
// user-level thread package.
//
// This file is the wall-clock driver of the protocol core: it owns
// everything runtime-specific — transports, mutexes, sender goroutines,
// wall-clock timers and watchdogs — and delegates every convergence
// decision to protocol.Rank and protocol.Coordinator. Where the simulator
// answers "how do the middlewares compare on a grid I can specify
// exactly?", this backend answers "does the protocol hold up on real
// concurrency, and how fast is it on this hardware?" — with wall-clock
// guards (Config.Timeout, Config.StallAfter on a protocol.StallGuard) in
// place of the simulator's drained-event-queue stall detection, because a
// deadlocked native run would otherwise hang forever rather than stopping
// the clock.
package backend

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/obs"
	"aiac/internal/protocol"
	"aiac/internal/trace"
	"aiac/internal/transport"
)

// Config tunes a native solve. The protocol tunables (Eps, PersistIters,
// MaxIters, Grace, Heartbeat) default to the shared constants of
// internal/protocol — the same values the simulated engine resolves to —
// so the two backends measure one protocol, not two configurations.
type Config struct {
	// Mode selects AIAC (Async) or SISC (Sync).
	Mode aiac.Mode
	// Eps is the local convergence threshold on the residual.
	Eps float64
	// PersistIters is the consecutive locally-converged iterations
	// required before a rank starts the two-phase confirmation.
	PersistIters int
	// MaxIters bounds each rank's iterations.
	MaxIters int
	// Grace is the coordinator's quiet window between seeing every rank
	// confirmed and broadcasting stop (protocol.Params.Grace on the wall
	// clock).
	Grace time.Duration
	// Heartbeat makes a confirmed rank re-send its state at this interval
	// until the stop arrives, and the coordinator re-answer post-stop
	// heartbeats with a fresh stop (protocol.Params.Heartbeat).
	Heartbeat time.Duration
	// Timeout aborts the solve after this much wall time and reports it
	// as stalled — the guard that keeps a runaway native cell from
	// hanging a sweep. Zero disables it.
	Timeout time.Duration
	// StallAfter aborts the solve when no rank completes an iteration for
	// this long — a synchronous exchange whose messages were lost
	// deadlocks silently, and this watchdog is what turns that into a
	// reported STALL. Zero disables it.
	StallAfter time.Duration
	// Residuals, when non-nil, records each rank's residual trajectory
	// (downsampled, stamped with wall seconds since the solve's epoch) for
	// the convergence red-flag detectors (internal/obs). Each rank's loop
	// is the sole writer of its own timeline, so recording needs no locks
	// and cannot serialize ranks against each other.
	Residuals *obs.Residuals
	// Trace, when non-nil, collects the solve's execution flow — compute
	// spans, blocking waits, and message deliveries — stamped in
	// wall-clock nanoseconds since the solve's epoch, the native analogue
	// of the simulator's collector (and the input internal/obs/critpath
	// attributes). Spans and waits are buffered per rank (each loop is
	// its own writer) and merged when Run returns; message records pair a
	// sender-side stamp with the receive-handler instant under a mutex.
	// Tracing adds clock reads and appends to the hot loops, so a traced
	// run's wall time carries that overhead; leave nil when measuring.
	Trace *trace.Collector
}

// protocolParams resolves the protocol tunables against the shared
// defaults of internal/protocol.
func (c Config) protocolParams() protocol.Params {
	return protocol.Params{
		Eps:          c.Eps,
		PersistIters: c.PersistIters,
		MaxIters:     c.MaxIters,
		Grace:        protocol.Time(c.Grace),
		Heartbeat:    protocol.Time(c.Heartbeat),
	}.WithDefaults()
}

func (c Config) withDefaults() Config {
	pp := c.protocolParams()
	c.Eps = pp.Eps
	c.PersistIters = pp.PersistIters
	c.MaxIters = pp.MaxIters
	c.Grace = time.Duration(pp.Grace)
	c.Heartbeat = time.Duration(pp.Heartbeat)
	return c
}

// Report is the outcome of one native solve.
type Report struct {
	// Wall is the measured wall-clock time from the post-barrier start to
	// the last rank's exit.
	Wall time.Duration
	// X is the assembled final iterate (each rank's own block).
	X []float64
	// ItersPerRank counts each rank's local iterations.
	ItersPerRank []int
	// Reason tells how the run ended, with the engine's vocabulary:
	// StopConverged, StopIterCap, or StopStalled (timeout / no-progress
	// watchdog).
	Reason aiac.StopReason
	// StateMsgs counts convergence-state messages the coordinator
	// received (async mode).
	StateMsgs int
	// Heartbeats, StopRebroadcasts and ReconfirmRounds are the protocol
	// observability counters (protocol.Counters), mirrored from the
	// engine's report so BENCH files carry them for every backend.
	Heartbeats       int
	StopRebroadcasts int
	ReconfirmRounds  int
	// Protocol records the resolved protocol constants of the run.
	Protocol protocol.Params
	// Net is the transport's traffic snapshot.
	Net transport.Stats
}

// Converged reports whether global convergence was detected.
func (r *Report) Converged() bool { return r.Reason == aiac.StopConverged }

// TotalIters sums ItersPerRank.
func (r *Report) TotalIters() int {
	t := 0
	for _, n := range r.ItersPerRank {
		t += n
	}
	return t
}

// Run solves prob natively over the transport's ranks. The caller owns the
// transport's configuration (shaping must be set beforehand); Run
// registers the handlers, starts it, and closes it on return.
func Run(prob aiac.Problem, tr transport.Transport, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	pp := cfg.protocolParams()
	n := tr.Size()
	bounds := prob.PartitionBounds(n)
	plan := aiac.BuildSendPlan(prob, bounds)
	x0 := prob.InitialVector()
	if len(x0) != prob.Size() {
		return nil, fmt.Errorf("backend: initial vector size mismatch")
	}

	s := &solver{
		prob: prob, tr: tr, cfg: cfg, n: n,
		bounds: bounds, plan: plan,
		mus:         make([]sync.Mutex, n),
		xs:          make([][]float64, n),
		lastArrival: make([]map[int32]protocol.Time, n),
		recvTotal:   make([]atomic.Int64, n),
		notify:      make([]chan struct{}, n),
		stop:        make([]chan struct{}, n),
		stopOnce:    make([]sync.Once, n),
		iters:       make([]int, n),
		capped:      make([]bool, n),
		finish:      make([]time.Time, n),
		abort:       make(chan struct{}),
		ranks:       make([]*protocol.Rank, n),
		reduce:      &reducer{rounds: make(map[int32]*reduceRound)},
		results:     make(map[int32]float64),
	}
	if cfg.Trace != nil {
		s.rtr = make([]*trace.Collector, n)
		for r := 0; r < n; r++ {
			s.rtr[r] = trace.New()
		}
		s.sendStamps = make(map[stampKey][]protocol.Time)
	}
	s.coord = protocol.NewCoordinator(n, pp, (*wallCoordRuntime)(s))
	for r := 0; r < n; r++ {
		s.xs[r] = make([]float64, len(x0))
		copy(s.xs[r], x0)
		s.lastArrival[r] = make(map[int32]protocol.Time, plan.RecvCount[r])
		s.notify[r] = make(chan struct{}, 1)
		s.stop[r] = make(chan struct{})
		s.ranks[r] = protocol.NewRank(r, pp)
	}
	s.epoch = time.Now() // the protocol.Time origin; set before any handler runs
	for r := 0; r < n; r++ {
		tr.SetHandler(r, s.handler(r))
	}
	if err := tr.Start(); err != nil {
		return nil, fmt.Errorf("backend: starting %s transport: %w", tr.Name(), err)
	}

	s.spawnedAt = time.Now()
	if cfg.Timeout > 0 || cfg.StallAfter > 0 {
		go s.watchdog()
	}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runRank(r)
		}()
	}
	wg.Wait()
	s.abortOnce.Do(func() { close(s.abort) }) // retire the watchdog
	s.coord.Close()                           // withdraw a pending grace timer
	// Tear the wire down (Close waits for the receive/link threads, so no
	// handler runs past this point), refuse new helper goroutines, and
	// drain the in-flight ones before touching shared state.
	tr.Close()
	s.bgMu.Lock()
	s.bgClosed = true
	s.bgMu.Unlock()
	s.bg.Wait()
	if cfg.Trace != nil {
		// Merge the per-rank span/wait buffers into the caller's
		// collector; the message records went straight there (traceRecv,
		// under trMu). Every rank loop, handler and helper has drained by
		// now, so plain appends are safe.
		for _, rc := range s.rtr {
			cfg.Trace.Spans = append(cfg.Trace.Spans, rc.Spans...)
			cfg.Trace.Waits = append(cfg.Trace.Waits, rc.Waits...)
		}
	}

	end := s.spawnedAt
	for _, f := range s.finish {
		if f.After(end) {
			end = f
		}
	}
	start := s.spawnedAt
	if at, ok := s.startAt.Load().(time.Time); ok {
		start = at
	}
	rep := &Report{
		Wall:             end.Sub(start),
		X:                make([]float64, len(x0)),
		ItersPerRank:     s.iters,
		StateMsgs:        s.coord.Msgs(),
		StopRebroadcasts: s.coord.Rebroadcasts(),
		Protocol:         pp,
		Net:              tr.Stats(),
	}
	anyCapped := false
	for _, c := range s.capped {
		anyCapped = anyCapped || c
	}
	for _, rk := range s.ranks {
		rep.Heartbeats += rk.Heartbeats()
		rep.ReconfirmRounds += rk.Reconfirms()
	}
	switch {
	case s.stalled.Load():
		rep.Reason = aiac.StopStalled
	case s.coord.Stopped() && !anyCapped:
		rep.Reason = aiac.StopConverged
	default:
		rep.Reason = aiac.StopIterCap
	}
	for r := 0; r < n; r++ {
		s.mus[r].Lock()
		copy(rep.X[bounds[r]:bounds[r+1]], s.xs[r][bounds[r]:bounds[r+1]])
		s.mus[r].Unlock()
	}
	return rep, nil
}

// solver is the shared state of one native solve.
type solver struct {
	prob   aiac.Problem
	tr     transport.Transport
	cfg    Config
	n      int
	bounds []int
	plan   *aiac.SendPlan

	// Per-rank iterate state: the transport's receive threads write x and
	// the arrival bookkeeping under the rank's mutex; the iterate loop
	// reads and updates under the same mutex — the paper's "mutex system".
	// Arrival instants are protocol.Time offsets from epoch, the same
	// clock the rank machines run on.
	mus         []sync.Mutex
	xs          [][]float64
	lastArrival []map[int32]protocol.Time
	epoch       time.Time

	// Sync-mode accounting: total data messages received per rank, with a
	// 1-buffered wakeup channel for the exchange/reduction waits.
	recvTotal []atomic.Int64
	notify    []chan struct{}

	// Stop propagation (async mode): one gate per rank, opened by the
	// coordinator's MsgStop broadcast.
	stop     []chan struct{}
	stopOnce []sync.Once

	iters     []int
	stall     protocol.StallGuard // watchdog progress counter
	capped    []bool
	finish    []time.Time
	spawnedAt time.Time
	startAt   atomic.Value // time.Time of the first post-barrier rank

	abort     chan struct{} // wall-clock guard tripped
	abortOnce sync.Once
	stalled   atomic.Bool

	// The protocol machines: one confirmation state machine per rank, the
	// coordinator hosted on rank 0.
	ranks []*protocol.Rank
	coord *protocol.Coordinator

	reduce  *reducer
	resMu   sync.Mutex
	results map[int32]float64 // reduction round -> result, recent rounds only

	// Helper goroutines (per-key senders, broadcasts) drain through bg
	// before Run returns; spawn guards the Add against Run's bg.Wait —
	// a grace-timer callback can still be in flight when the solve ends.
	bgMu     sync.Mutex
	bgClosed bool
	bg       sync.WaitGroup

	// Tracing state (Config.Trace): per-rank span/wait buffers written
	// lock-free by each rank's own loop, and the sender-stamp exchange
	// pairing send instants with receive-handler instants, shared between
	// sender and receive threads under trMu. All nil/unused when the
	// solve is not traced.
	rtr        []*trace.Collector
	trMu       sync.Mutex
	sendStamps map[stampKey][]protocol.Time
}

// stampKey identifies a wire message for send/receive pairing. Data and
// reduce messages are unique per (from, to, type, key, seq); control
// re-sends (heartbeat state, stop repeats) share a key and pair FIFO,
// which the blocking per-link sends keep honest.
type stampKey struct {
	from, to int
	typ      transport.MsgType
	key      int32
	seq      int32
}

// stampSend records the wall-clock instant m is handed to the transport,
// so the receive handler can pair it into a trace.Msg. No-op untraced.
func (s *solver) stampSend(from, to int, m transport.Msg) {
	if s.rtr == nil {
		return
	}
	k := stampKey{from: from, to: to, typ: m.Type, key: m.Key, seq: m.Seq}
	now := s.now()
	s.trMu.Lock()
	s.sendStamps[k] = append(s.sendStamps[k], now)
	s.trMu.Unlock()
}

// traceRecv pairs an arriving message with its send stamp and records the
// delivery. Runs on the transport's receive threads.
func (s *solver) traceRecv(to int, m transport.Msg) {
	if s.rtr == nil {
		return
	}
	now := s.now()
	k := stampKey{from: int(m.From), to: to, typ: m.Type, key: m.Key, seq: m.Seq}
	s.trMu.Lock()
	defer s.trMu.Unlock()
	stamps := s.sendStamps[k]
	if len(stamps) == 0 {
		return // no stamp: a shaped duplicate or an untracked path
	}
	sent := stamps[0]
	if len(stamps) == 1 {
		delete(s.sendStamps, k)
	} else {
		s.sendStamps[k] = stamps[1:]
	}
	s.cfg.Trace.AddMsg(trace.Msg{
		From: int(m.From), To: to, Sent: des.Time(sent), Recv: des.Time(now),
		Kind: traceKind(m.Type), Bytes: wireBytes(m), Iter: int(m.Seq),
	})
}

// traceKind maps a transport message type onto the trace vocabulary.
func traceKind(t transport.MsgType) trace.MsgKind {
	switch t {
	case transport.MsgData:
		return trace.MsgData
	case transport.MsgState:
		return trace.MsgState
	case transport.MsgStop:
		return trace.MsgStop
	default: // MsgReduce, MsgReduceResult
		return trace.MsgReduce
	}
}

// wireBytes estimates the message's on-wire size: the codec's fixed frame
// header plus the float64 payload.
func wireBytes(m transport.Msg) int { return 24 + 8*len(m.Values) }

// traceWait records a blocking wait on rank r's buffer. No-op untraced.
func (s *solver) traceWait(r int, start protocol.Time, kind trace.WaitKind) {
	if s.rtr == nil {
		return
	}
	// Native waits carry no cause edge: wall-clock delivery order is not
	// deterministic, so the analyzer binds arrivals to waits by time.
	s.rtr[r].AddWait(r, des.Time(start), des.Time(s.now()), kind, -1)
}

// now is the solver's protocol clock: nanoseconds since epoch.
func (s *solver) now() protocol.Time { return protocol.Time(time.Since(s.epoch)) }

// wallCoordRuntime adapts the wall clock to protocol.CoordinatorRuntime:
// grace timers are time.AfterFunc (cancellable, because a wall-clock timer
// outlives the run), and stop broadcasts ride helper goroutines since each
// transport send blocks for the link's shaped delay.
type wallCoordRuntime solver

func (rt *wallCoordRuntime) AfterGrace(f func()) (cancel func()) {
	t := time.AfterFunc(rt.cfg.Grace, f)
	return func() { t.Stop() }
}

func (rt *wallCoordRuntime) BroadcastStop() { (*solver)(rt).broadcastStop() }

// spawn runs f on a tracked helper goroutine; once Run has begun draining
// the helpers it becomes a no-op (the transport is closed, so the send f
// would perform is moot anyway).
func (s *solver) spawn(f func()) {
	s.bgMu.Lock()
	if s.bgClosed {
		s.bgMu.Unlock()
		return
	}
	s.bg.Add(1)
	s.bgMu.Unlock()
	go func() {
		defer s.bg.Done()
		f()
	}()
}

// trip aborts the solve and marks it stalled.
func (s *solver) trip() {
	s.stalled.Store(true)
	s.abortOnce.Do(func() { close(s.abort) })
	// Pending blocking sends and waits unblock through the closed
	// transport.
	s.tr.Close()
}

// watchdog enforces the wall-clock guards: a hard timeout, and the
// protocol's no-progress stall detector polled at StallAfter.
func (s *solver) watchdog() {
	var deadline <-chan time.Time
	if s.cfg.Timeout > 0 {
		t := time.NewTimer(s.cfg.Timeout)
		defer t.Stop()
		deadline = t.C
	}
	tick := s.cfg.StallAfter
	if tick <= 0 {
		tick = time.Hour
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	s.stall.Stalled() // seed the baseline at watchdog start
	for {
		select {
		case <-s.abort:
			return
		case <-deadline:
			s.trip()
			return
		case <-ticker.C:
			if s.cfg.StallAfter <= 0 {
				continue
			}
			if s.stall.Stalled() {
				s.trip()
				return
			}
		}
	}
}

// handler dispatches rank r's inbound messages — it runs on the
// transport's receive threads.
func (s *solver) handler(r int) transport.Handler {
	return func(m transport.Msg) {
		s.traceRecv(r, m)
		switch m.Type {
		case transport.MsgData:
			s.mus[r].Lock()
			copy(s.xs[r][m.Lo:int(m.Lo)+len(m.Values)], m.Values)
			s.lastArrival[r][m.Key] = s.now()
			s.mus[r].Unlock()
			s.recvTotal[r].Add(1)
			s.wake(r)
		case transport.MsgState:
			if r == 0 {
				s.coord.OnState(protocol.StateMsg{
					From: int(m.From), Converged: m.Flag, Seq: int(m.Seq),
				})
			}
		case transport.MsgStop:
			s.stopRank(r)
		case transport.MsgReduce:
			if r == 0 {
				s.contribute(m.Seq, m.Values[0])
			}
		case transport.MsgReduceResult:
			s.resMu.Lock()
			s.results[m.Seq] = m.Values[0]
			s.resMu.Unlock()
			s.wake(r)
		}
	}
}

func (s *solver) wake(r int) {
	select {
	case s.notify[r] <- struct{}{}:
	default:
	}
}

func (s *solver) stopRank(r int) {
	s.stopOnce[r].Do(func() { close(s.stop[r]) })
}

func (s *solver) stopped(r int) bool {
	select {
	case <-s.stop[r]:
		return true
	default:
		return false
	}
}

func (s *solver) aborted() bool {
	select {
	case <-s.abort:
		return true
	default:
		return false
	}
}

// runRank is the body of one native rank.
func (s *solver) runRank(r int) {
	defer func() { s.finish[r] = time.Now() }()
	// §4.3: "only the first iteration begins at the same time on all the
	// processors" — an entry barrier, built on the reduction machinery.
	if _, ok := s.allreduceMax(r, -1, 0); !ok {
		return
	}
	if r == 0 {
		s.startAt.Store(time.Now())
	}
	if s.cfg.Mode == aiac.Sync {
		s.runSync(r)
	} else {
		s.runAsync(r)
	}
}

// sendReliable performs a blocking control-plane send, swallowing
// transport teardown (the run is ending anyway).
func (s *solver) sendReliable(from, to int, m transport.Msg) {
	s.stampSend(from, to, m)
	_ = s.tr.Send(from, to, m)
}

// broadcastStop opens every rank's stop gate. Invoked by the coordinator's
// runtime (grace-timer goroutine or a receive thread); the sends run on
// helper goroutines because each one blocks for the link's shaped delay.
func (s *solver) broadcastStop() {
	s.stopRank(0)
	for to := 1; to < s.n; to++ {
		to := to
		s.spawn(func() {
			s.sendReliable(0, to, transport.Msg{Type: transport.MsgStop, From: 0})
		})
	}
}

// --- async mode ---

// runAsync is the AIAC loop: the shared protocol machine fed from real
// concurrency, with transport sender goroutines in place of middleware
// send threads.
func (s *solver) runAsync(r int) {
	cfg := s.cfg
	rk := s.ranks[r]
	targets := s.plan.Targets[r]
	// One unbuffered channel + sender goroutine per send-plan channel:
	// a try-send that finds the sender busy skips — the previous send of
	// the same data has not terminated (§4.3's policy). The blocking
	// transport Send holds the sender for the link's full shaped delay,
	// so the skip window tracks the wire, exactly like the simulator's
	// TrySendData.
	outs := make([]chan transport.Msg, len(targets))
	for i, tg := range targets {
		ch := make(chan transport.Msg)
		outs[i] = ch
		to := tg.To
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			for m := range ch {
				s.stampSend(r, to, m)
				if s.tr.Send(r, to, m) != nil {
					// Transport closed: drain without sending.
					for range ch {
					}
					return
				}
			}
		}()
	}
	// State messages are never skipped and must stay FIFO: a dedicated
	// sender goroutine with a deep buffer.
	states := make(chan transport.Msg, 64)
	var stateWG sync.WaitGroup
	if r != 0 {
		stateWG.Add(1)
		go func() {
			defer stateWG.Done()
			for m := range states {
				s.stampSend(r, 0, m)
				if s.tr.Send(r, 0, m) != nil {
					for range states {
					}
					return
				}
			}
		}()
	}
	defer func() {
		for _, ch := range outs {
			close(ch)
		}
		close(states)
		stateWG.Wait()
	}()

	sendState := func(st protocol.StateMsg) {
		if r == 0 {
			s.coord.OnState(st) // the coordinator is local to rank 0
			return
		}
		states <- transport.Msg{
			Type: transport.MsgState, From: int32(r), Seq: int32(st.Seq), Flag: st.Converged,
		}
	}
	// The freshness gate of the two-phase confirmation: consulted by the
	// machine only while it awaits confirmation, under the rank's mutex
	// because receive threads write the arrival map concurrently.
	fresh := func(since protocol.Time) bool {
		s.mus[r].Lock()
		defer s.mus[r].Unlock()
		return s.allFresherThan(r, since)
	}

	x := s.xs[r]
	// Double buffering per send channel: `spare` is written each
	// iteration; a successful hand-over swaps it with `inflight`, whose
	// previous buffer the sender goroutine has already released (its Send
	// returned before it could accept a new message). The spin-heavy
	// asynchronous loop thus sends without per-iteration allocation.
	spare := make([][]float64, len(targets))
	inflight := make([][]float64, len(targets))
	for i, tg := range targets {
		spare[i] = make([]float64, tg.Seg.Len())
		inflight[i] = make([]float64, tg.Seg.Len())
	}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		if s.stopped(r) || s.aborted() {
			return
		}
		var tc0 protocol.Time
		if s.rtr != nil {
			tc0 = s.now()
		}
		s.mus[r].Lock()
		res, _ := s.prob.Update(r, s.bounds, x)
		// Snapshot outgoing segments and the arrival bookkeeping under
		// the lock.
		for i, tg := range targets {
			copy(spare[i], x[tg.Seg.Lo:tg.Seg.Hi])
		}
		heardAll := len(s.lastArrival[r]) == s.plan.RecvCount[r]
		s.mus[r].Unlock()
		if s.rtr != nil {
			s.rtr[r].AddSpan(r, des.Time(tc0), des.Time(s.now()), trace.Compute, iter)
		}
		s.iters[r]++
		s.stall.Tick()
		cfg.Residuals.Record(r, s.now().Seconds(), res)

		for i, tg := range targets {
			select {
			case outs[i] <- transport.Msg{
				Type: transport.MsgData, From: int32(r), Key: int32(tg.Key),
				Seq: int32(iter), Lo: int32(tg.Seg.Lo), Values: spare[i],
			}:
				spare[i], inflight[i] = inflight[i], spare[i]
			default: // previous send still in progress: skip
			}
		}

		// Local convergence is the protocol machine's call: persistence,
		// then two-phase confirmation, with heartbeats once confirmed.
		if st, ok := rk.Step(s.now(), res, heardAll, fresh, 0); ok {
			sendState(st)
		}
		// Yield so receive threads, senders, and the coordinator get
		// scheduled promptly even with GOMAXPROCS < ranks — the
		// cooperative-fairness discipline of the paper's user-level
		// thread packages.
		runtime.Gosched()
	}
	if !s.stopped(r) && !s.aborted() {
		s.capped[r] = true
	}
}

// allFresherThan reports whether every dependency channel of rank r has
// delivered a message after t. Caller holds the rank's mutex.
func (s *solver) allFresherThan(r int, t protocol.Time) bool {
	if len(s.lastArrival[r]) < s.plan.RecvCount[r] {
		return false
	}
	//lint:unordered — pure universally-quantified check, no effects; the answer is order-independent
	for _, at := range s.lastArrival[r] {
		if at <= t {
			return false
		}
	}
	return true
}

// --- sync mode ---

// runSync is the SISC loop: compute, blocking exchange, global residual
// reduction — all ranks in lockstep. A lost exchange message deadlocks the
// lockstep, which the wall-clock watchdog turns into a reported stall
// (SISC has no recovery protocol; the simulator reports the same fate).
func (s *solver) runSync(r int) {
	cfg := s.cfg
	targets := s.plan.Targets[r]
	x := s.xs[r]
	// One message and snapshot buffer per target, reused every round:
	// swg.Wait below returns only after every Send of the round has, and a
	// returned Send leaves its Values to the caller.
	sends := make([]transport.Msg, len(targets))
	for i, tg := range targets {
		sends[i] = transport.Msg{
			Type: transport.MsgData, From: int32(r), Key: int32(tg.Key),
			Lo: int32(tg.Seg.Lo), Values: make([]float64, tg.Seg.Len()),
		}
	}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		if s.aborted() {
			return
		}
		var tc0 protocol.Time
		if s.rtr != nil {
			tc0 = s.now()
		}
		s.mus[r].Lock()
		res, _ := s.prob.Update(r, s.bounds, x)
		for i, tg := range targets {
			copy(sends[i].Values, x[tg.Seg.Lo:tg.Seg.Hi])
			sends[i].Seq = int32(iter)
		}
		s.mus[r].Unlock()
		if s.rtr != nil {
			s.rtr[r].AddSpan(r, des.Time(tc0), des.Time(s.now()), trace.Compute, iter)
		}
		s.iters[r]++
		s.stall.Tick()
		cfg.Residuals.Record(r, s.now().Seconds(), res)

		// Blocking exchange: the sends of one round overlap (one helper
		// per target, like MPI_Isend + Waitall), then block until every
		// dependency message of the round has been incorporated.
		var tw0 protocol.Time
		if s.rtr != nil {
			tw0 = s.now()
		}
		var swg sync.WaitGroup
		for i, tg := range targets {
			swg.Add(1)
			go func(to int, m transport.Msg) {
				defer swg.Done()
				s.stampSend(r, to, m)
				_ = s.tr.Send(r, to, m)
			}(tg.To, sends[i])
		}
		swg.Wait()
		if s.rtr != nil {
			s.traceWait(r, tw0, trace.WaitBlockedSend)
			tw0 = s.now()
		}
		want := int64(iter+1) * int64(s.plan.RecvCount[r])
		for s.recvTotal[r].Load() < want {
			select {
			case <-s.notify[r]:
			case <-s.abort:
				return
			}
		}
		if s.rtr != nil {
			s.traceWait(r, tw0, trace.WaitExchange)
		}

		global, ok := s.allreduceMax(r, int32(iter), res)
		if !ok {
			return
		}
		if global < cfg.Eps {
			// The global reduction just validated every block: record the
			// stop through the shared coordinator, exactly like the
			// engine's sync path.
			s.ranks[r].Validate()
			s.coord.MarkStopped()
			return
		}
	}
	s.capped[r] = true
}

// allreduceMax folds v over all ranks through the rank-0 reducer and
// returns the global maximum. ok is false when the solve aborted mid-wait.
// Round -1 doubles as the entry barrier.
func (s *solver) allreduceMax(r int, round int32, v float64) (float64, bool) {
	if r == 0 {
		s.contribute(round, v)
	} else {
		m := transport.Msg{
			Type: transport.MsgReduce, From: int32(r), Seq: round, Values: []float64{v},
		}
		s.stampSend(r, 0, m)
		if s.tr.Send(r, 0, m) != nil {
			return 0, false
		}
	}
	var tw0 protocol.Time
	if s.rtr != nil {
		tw0 = s.now()
	}
	for {
		s.resMu.Lock()
		out, done := s.results[round]
		s.resMu.Unlock()
		if done {
			if s.rtr != nil {
				kind := trace.WaitReduce
				if round < 0 {
					kind = trace.WaitBarrier // round -1 is the entry barrier
				}
				s.traceWait(r, tw0, kind)
			}
			return out, true
		}
		select {
		case <-s.notify[r]:
		case <-s.abort:
			return 0, false
		}
	}
}

// contribute folds one rank's value into the reduction round; when the
// round completes, rank 0 publishes the result to every rank.
func (s *solver) contribute(round int32, v float64) {
	if done, max := s.reduce.add(round, v, s.n); done {
		s.resMu.Lock()
		s.results[round] = max
		// Publishing round k means every rank has consumed k-1 (its
		// contribution to k waited on it), so rounds ≤ k-2 are dead:
		// prune them to keep the map O(1) over a long sync solve.
		delete(s.results, round-2)
		s.resMu.Unlock()
		s.wake(0)
		for to := 1; to < s.n; to++ {
			to := to
			s.spawn(func() {
				s.sendReliable(0, to, transport.Msg{
					Type: transport.MsgReduceResult, From: 0, Seq: round, Values: []float64{max},
				})
			})
		}
	}
}

// reducer collects per-round allreduce contributions on rank 0.
type reducer struct {
	mu     sync.Mutex
	rounds map[int32]*reduceRound
}

type reduceRound struct {
	count int
	max   float64
}

func (rd *reducer) add(round int32, v float64, n int) (done bool, max float64) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	rr := rd.rounds[round]
	if rr == nil {
		rr = &reduceRound{max: v}
		rd.rounds[round] = rr
	} else if v > rr.max {
		rr.max = v
	}
	rr.count++
	if rr.count == n {
		delete(rd.rounds, round)
		return true, rr.max
	}
	return false, 0
}
