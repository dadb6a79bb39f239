// Package backend runs AIAC solves natively: goroutine ranks exchanging
// messages over an internal/transport wire in wall-clock time, each running
// the same aiac.Loop the simulator runs. The paper's §6 asks a programming
// environment for blocking point-to-point sends, receptions in threads, a
// fair scheduler and a mutex system; Go has each, and this driver is the
// demonstration.
//
// The driver owns only what the wall clock needs: the transport and its
// handlers, a mutex per rank between its Loop and the receive threads, a
// sender goroutine per send-plan channel (whose busy flag is the send-skip
// channel state), the rank-0 reducer behind Allreduce, wall-clock tracing,
// and the guards a clock that cannot stop on its own needs — Config.Timeout
// and Config.StallAfter on a protocol.StallGuard. A rank that panics trips
// the solve, and Run returns the panic as its error.
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

// Config tunes a native solve: Mode, Eps, MaxIters, Grace, Timeout,
// StallAfter, Residuals and Trace. Unset Eps, MaxIters and Grace, and the
// persistence threshold and heartbeat interval (not settable here),
// resolve to the shared constants of internal/protocol — the values the
// simulated engine resolves to — so the two backends measure one
// protocol, not two configurations.
type Config struct {
	// Mode selects AIAC (Async) or SISC (Sync).
	Mode aiac.Mode
	// Eps is the local convergence threshold on the residual.
	Eps float64
	// MaxIters bounds each rank's iterations.
	MaxIters int
	// Grace is the coordinator's quiet window between seeing every rank
	// confirmed and broadcasting stop (protocol.Params.Grace on the wall
	// clock).
	Grace time.Duration
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

// Report is the outcome of one native solve: the simulator's report, plus
// what only the wall clock has.
type Report struct {
	aiac.Report
	// Wall is the measured wall-clock time from the post-barrier start to
	// the last rank's exit.
	Wall time.Duration
	// Net is the transport's traffic snapshot.
	Net transport.Stats
}

// Run solves prob natively over the transport's ranks. The caller owns the
// transport's configuration (shaping must be set beforehand); Run
// registers the handlers, starts it, and closes it on return. A rank that
// panics ends the solve with an error naming the rank and the panic.
func Run(prob aiac.Problem, tr transport.Transport, cfg Config) (*Report, error) {
	acfg := aiac.Config{
		Mode: cfg.Mode, Eps: cfg.Eps, MaxIters: cfg.MaxIters,
		StopGrace: cfg.Grace, Residuals: cfg.Residuals,
	}
	pp := acfg.Params()
	cfg.Grace = time.Duration(pp.Grace)
	n := tr.Size()
	bounds := prob.PartitionBounds(n)
	plan := aiac.BuildSendPlan(prob, bounds)
	x0 := prob.InitialVector()
	if len(x0) != prob.Size() {
		return nil, fmt.Errorf("backend: initial vector size mismatch")
	}

	s := &solver{
		tr: tr, cfg: cfg, n: n, plan: plan,
		mus:       make([]sync.Mutex, n),
		loops:     make([]*aiac.Loop, n),
		busy:      make([][]atomic.Bool, n),
		recvTotal: make([]atomic.Int64, n),
		notify:    make([]chan struct{}, n),
		stop:      make([]chan struct{}, n),
		stopOnce:  make([]sync.Once, n),
		finish:    make([]time.Time, n),
		abort:     make(chan struct{}),
		partial:   make(map[int32]reduceRound),
		results:   make(map[int32]float64),
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
		s.busy[r] = make([]atomic.Bool, len(plan.Targets[r]))
		s.loops[r] = aiac.NewLoop(r, acfg, prob, bounds, plan, x0, port{s, r})
		s.notify[r] = make(chan struct{}, 1)
		s.stop[r] = make(chan struct{})
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
			defer func() {
				if v := recover(); v != nil {
					s.errOnce.Do(func() { s.err = fmt.Errorf("backend: rank %d panicked: %v", r, v) })
					s.trip()
				}
			}()
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
	if s.err != nil {
		return nil, s.err
	}
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
	return &Report{
		Report: aiac.NewReport(s.loops, s.coord, s.stalled.Load()),
		Wall:   end.Sub(start),
		Net:    tr.Stats(),
	}, nil
}

// solver is the shared state of one native solve.
type solver struct {
	tr   transport.Transport
	cfg  Config
	n    int
	plan *aiac.SendPlan

	// Per-rank Loops: the transport's receive threads Incorporate under
	// the rank's mutex, and the rank's goroutine runs Next under it — the
	// paper's "mutex system". busy[r][i] is set while target i's sender
	// goroutine holds a message. Driver time is protocol.Time since epoch.
	mus   []sync.Mutex
	loops []*aiac.Loop
	busy  [][]atomic.Bool
	epoch time.Time

	// Data messages received and send channels freed per rank, with a
	// 1-buffered wakeup channel for the exchange/reduction waits.
	recvTotal []atomic.Int64
	notify    []chan struct{}

	// Stop propagation (async mode): one gate per rank, opened by the
	// coordinator's MsgStop broadcast.
	stop     []chan struct{}
	stopOnce []sync.Once

	stall     protocol.StallGuard // watchdog progress counter
	finish    []time.Time
	spawnedAt time.Time
	startAt   atomic.Value // time.Time of the first post-barrier rank

	abort     chan struct{} // wall-clock guard tripped, a rank panicked, or a residual was non-finite
	abortOnce sync.Once
	stalled   atomic.Bool
	errOnce   sync.Once
	err       error // the first rank panic

	coord *protocol.Coordinator // hosted on rank 0

	// The allreduce: rank 0 folds contributions into partial and publishes
	// each finished round into results, which every rank reads.
	redMu   sync.Mutex
	partial map[int32]reduceRound
	results map[int32]float64

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

type reduceRound struct {
	count int
	max   float64
}

// port answers rank r's Loop.
type port struct {
	s *solver
	r int
}

func (pt port) Stopped() bool      { return pt.s.stopped(pt.r) || pt.s.aborted() }
func (pt port) CanSend(i int) bool { return !pt.s.busy[pt.r][i].Load() }
func (pt port) Crashed() bool      { return false }

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
	s.abandon()
}

// abandon aborts the solve: every rank exits at its next iteration
// boundary or wait.
func (s *solver) abandon() {
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
			s.loops[r].Incorporate(int(m.Key), m.Values, s.now())
			s.mus[r].Unlock()
			s.recvTotal[r].Add(1)
			s.wake(r)
		case transport.MsgState:
			if r == 0 {
				st := protocol.StateMsg{From: int(m.From), Converged: m.Flag, Seq: int(m.Seq)}
				if len(m.Values) > 0 {
					st.MaxGap = protocol.Time(m.Values[0])
				}
				s.coord.OnState(st)
			}
		case transport.MsgStop:
			s.stopOnce[r].Do(func() { close(s.stop[r]) })
		case transport.MsgReduce:
			if r == 0 {
				s.contribute(m.Seq, m.Values[0])
			}
		case transport.MsgReduceResult:
			s.redMu.Lock()
			s.results[m.Seq] = m.Values[0]
			s.redMu.Unlock()
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

// await blocks rank r until done holds, re-checking on every wakeup; it
// reports false if the solve aborted first.
func (s *solver) await(r int, done func() bool) bool {
	for !done() {
		select {
		case <-s.notify[r]:
		case <-s.abort:
			return false
		}
	}
	return true
}

// next runs rank r's Loop to its next action under the rank's mutex, at
// the instant it took the mutex (returned too), so an arrival that got in
// first is stamped before the Loop's now and cannot pass for fresh. A
// reused iteration is charged as the simulator charges it: the rank keeps
// its processor and the mutex as long as an Update takes, so a converged
// rank iterates at its computing pace. *cost is the shortest Update seen;
// a longer one also waited for the mutex or for a processor.
func (s *solver) next(r int, cost *protocol.Time) (aiac.Action, protocol.Time) {
	s.mus[r].Lock()
	defer s.mus[r].Unlock()
	now := s.now()
	a := s.loops[r].Next(now)
	switch {
	case a.Kind != aiac.Compute:
	case a.Reused:
		for s.now()-now < *cost {
		}
	default:
		if d := s.now() - now; *cost == 0 || d < *cost {
			*cost = d
		}
	}
	return a, now
}

// runRank is the body of one native rank: the entry barrier, then its
// Loop's actions as blocking calls on this goroutine.
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
	l, targets, busy := s.loops[r], s.plan.Targets[r], s.busy[r]
	// One sender goroutine per send-plan channel. A message is handed over
	// only while the channel is free, so the one-slot buffer never blocks;
	// the transport's blocking Send holds the channel busy for the link's
	// full shaped delay, so the async skip window tracks the wire exactly
	// like the simulator's TrySendData. Two buffers per channel: spare is
	// written, then swapped with the one the sender has released.
	outs := make([]chan transport.Msg, len(targets))
	spare := make([][]float64, len(targets))
	inflight := make([][]float64, len(targets))
	for i, tg := range targets {
		ch := make(chan transport.Msg, 1)
		outs[i] = ch
		spare[i] = make([]float64, tg.Seg.Len())
		inflight[i] = make([]float64, tg.Seg.Len())
		s.bg.Add(1)
		go func(to int, busy *atomic.Bool) {
			defer s.bg.Done()
			for m := range ch {
				s.stampSend(r, to, m)
				if s.tr.Send(r, to, m) != nil {
					// Transport closed: drain without sending.
					for range ch {
					}
					return
				}
				busy.Store(false)
				s.wake(r)
			}
		}(tg.To, &busy[i])
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
	send := func(i int) {
		tg := targets[i]
		copy(spare[i], l.Values(tg.Seg))
		busy[i].Store(true)
		outs[i] <- transport.Msg{
			Type: transport.MsgData, From: int32(r), Key: int32(tg.Key),
			Seq: int32(l.Iter()), Lo: int32(tg.Seg.Lo), Values: spare[i],
		}
		spare[i], inflight[i] = inflight[i], spare[i]
	}

	var cost protocol.Time // wall time of the rank's shortest Update
	for {
		a, now := s.next(r, &cost)
		switch a.Kind {
		case aiac.Compute:
			if s.rtr != nil {
				s.rtr[r].AddSpan(r, des.Time(now), des.Time(s.now()), trace.Compute, l.Iter())
			}
			s.stall.Tick()
		case aiac.Send:
			send(a.Target)
		case aiac.SendState:
			if r == 0 {
				s.coord.OnState(a.State) // the coordinator is local to rank 0
			} else {
				states <- transport.Msg{
					Type: transport.MsgState, From: int32(r), Seq: int32(a.State.Seq), Flag: a.State.Converged,
					Values: []float64{float64(a.State.MaxGap)},
				}
			}
			fallthrough
		case aiac.Yield:
			// The iteration is over: yield so receive threads, senders and
			// the coordinator run now, even with GOMAXPROCS < ranks — the
			// cooperative-fairness discipline of the paper's user-level
			// thread packages.
			runtime.Gosched()
		case aiac.Exchange:
			// Blocking exchange: the sends of one round overlap (like
			// MPI_Isend + Waitall), then the rank blocks until every
			// dependency message of the round has been incorporated. A lost
			// message deadlocks the lockstep, which the watchdog turns into
			// a reported stall (SISC has no recovery protocol).
			for i := range targets {
				send(i)
			}
			tw := s.now()
			if !s.await(r, func() bool {
				for i := range busy {
					if busy[i].Load() {
						return false
					}
				}
				return true
			}) {
				return
			}
			s.traceWait(r, tw, trace.WaitBlockedSend)
			tw = s.now()
			want := int64(l.Iter()+1) * int64(len(s.plan.Recv[r]))
			if !s.await(r, func() bool { return s.recvTotal[r].Load() >= want }) {
				return
			}
			s.traceWait(r, tw, trace.WaitExchange)
		case aiac.Allreduce:
			global, ok := s.allreduceMax(r, int32(l.Iter()), a.V)
			if !ok {
				return
			}
			l.Reduced(global)
		case aiac.Exit:
			if l.NonFinite() {
				s.abandon()
			}
			return
		}
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
	s.stopOnce[0].Do(func() { close(s.stop[0]) })
	for to := 1; to < s.n; to++ {
		to := to
		s.spawn(func() {
			s.sendReliable(0, to, transport.Msg{Type: transport.MsgStop, From: 0})
		})
	}
}

// allreduceMax folds v over all ranks through the rank-0 reducer and
// returns the global maximum. ok is false when the solve aborted mid-wait.
// Round -1 doubles as the entry barrier.
func (s *solver) allreduceMax(r int, round int32, v float64) (out float64, ok bool) {
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
	tw := s.now()
	ok = s.await(r, func() (done bool) {
		s.redMu.Lock()
		out, done = s.results[round]
		s.redMu.Unlock()
		return done
	})
	kind := trace.WaitReduce
	if round < 0 {
		kind = trace.WaitBarrier // round -1 is the entry barrier
	}
	if ok {
		s.traceWait(r, tw, kind)
	}
	return out, ok
}

// contribute folds one rank's value into the reduction round; when the
// round completes, rank 0 publishes the result to every rank.
func (s *solver) contribute(round int32, v float64) {
	s.redMu.Lock()
	rr, seen := s.partial[round]
	if !seen || v > rr.max {
		rr.max = v
	}
	rr.count++
	done := rr.count == s.n
	if done {
		delete(s.partial, round)
		s.results[round] = rr.max
		// Publishing round k means every rank has consumed k-1 (its
		// contribution to k waited on it), so rounds ≤ k-2 are dead:
		// prune them to keep the map O(1) over a long sync solve.
		delete(s.results, round-2)
	} else {
		s.partial[round] = rr
	}
	s.redMu.Unlock()
	if !done {
		return
	}
	max := rr.max
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
