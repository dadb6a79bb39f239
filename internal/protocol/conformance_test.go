package protocol_test

// The conformance replay: one seeded message/event trace driven through
// the protocol machines on two entirely different runtimes — the real
// discrete-event simulator (goroutine-backed processes, the engine's
// runtime) and a hand-rolled in-memory event queue (the minimal synthetic
// runtime) — asserting identical protocol decisions: the coordinator's
// message stream, the stop broadcast times and per-rank stop delivery
// order, the rebroadcast count, and the reconfirm outcomes. This is the
// drift regression guard: before internal/protocol existed, the engine and
// the native backend each carried a hand-synchronized copy of this logic,
// and they drifted; any future change that makes the protocol depend on a
// runtime detail breaks this test.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aiac/internal/des"
	"aiac/internal/protocol"
)

// confTrace is the seeded scenario both runtimes replay. All intervals are
// primes so no two events of different streams collide at one timestamp —
// tie-breaking order is the one thing the two runtimes legitimately do
// differently.
type confTrace struct {
	n      int
	params protocol.Params
	step   []int64 // per-rank iteration interval (ns)
	lat    []int64 // per-rank rank↔coordinator one-way latency (ns)
	arr0   []int64 // per-rank first dependency arrival
	arr    []int64 // per-rank dependency arrival interval
	convAt []int   // iterations (since last reset) until local convergence
	crash  []int64 // state-loss instant per rank (0 = never)
	maxIt  int     // per-rank iteration bound (runaway guard)
}

func newConfTrace(seed int64) *confTrace {
	rng := rand.New(rand.NewSource(seed))
	primes := []int64{997, 1009, 1013, 1019, 1021, 1031, 1033, 1039}
	lats := []int64{307, 311, 331, 337, 347, 349}
	arrs := []int64{701, 709, 719, 727, 733, 739}
	t := &confTrace{
		n: 4,
		params: protocol.Params{
			Eps: 1e-6, PersistIters: 3, MaxIters: 1 << 30,
			Grace: 7001, Heartbeat: 59999,
		}.WithDefaults(),
		maxIt: 5000,
	}
	for r := 0; r < t.n; r++ {
		t.step = append(t.step, primes[rng.Intn(len(primes))])
		t.lat = append(t.lat, lats[rng.Intn(len(lats))])
		t.arr0 = append(t.arr0, 53+int64(r))
		t.arr = append(t.arr, arrs[rng.Intn(len(arrs))])
		t.convAt = append(t.convAt, 5+rng.Intn(5))
		t.crash = append(t.crash, 0)
	}
	// Rank 0 converges late so the whole detection waits on it; rank 1
	// loses its state after its early confirmation and must reconfirm;
	// rank 3's stop delivery is slow, so its heartbeats keep arriving
	// after the stop and force rebroadcasts.
	t.convAt[0] = 120 + rng.Intn(40)
	t.crash[1] = 30011
	t.lat[3] = 100003
	return t
}

// lastArrival is the newest dependency-arrival instant of rank r at time
// now (arrivals are an implicit deterministic stream, not queue events).
func (t *confTrace) lastArrival(r int, now int64) int64 {
	if now < t.arr0[r] {
		return -1
	}
	return t.arr0[r] + (now-t.arr0[r])/t.arr[r]*t.arr[r]
}

// rankReplay is the runtime-independent per-rank replay state.
type rankReplay struct {
	rk         *protocol.Rank
	sinceReset int
	crashed    bool
}

// step advances one iteration at instant now and returns the state message
// to send, if any.
func (t *confTrace) stepRank(r int, rs *rankReplay, now int64) (protocol.StateMsg, bool) {
	if t.crash[r] != 0 && !rs.crashed && now >= t.crash[r] {
		rs.crashed = true
		rs.sinceReset = 0
		if st, ok := rs.rk.StateLost(0); ok {
			return st, true
		}
	}
	res := 1.0
	if rs.sinceReset >= t.convAt[r] {
		res = 1e-9
	}
	rs.sinceReset++
	heardAll := now >= t.arr0[r]
	fresh := func(since protocol.Time) bool { return t.lastArrival(r, now) > int64(since) }
	return rs.rk.Step(protocol.Time(now), res, heardAll, fresh, 0)
}

// confLog is the decision record compared across runtimes.
type confLog struct {
	Coord      []string // coordinator's received message stream, in order
	Broadcasts []int64  // instants of the stop (re)broadcasts
	StopAt     []int64  // per-rank stop delivery instant
	Emitted    []string // per-rank emitted message streams
	Final      string   // counters + reconfirm outcomes
}

// harness is the shared replay wiring over an abstract scheduler: the
// runtimes differ only in now/after/spawn-and-run machinery.
type harness struct {
	t     *confTrace
	log   *confLog
	coord *protocol.Coordinator
	ranks []*rankReplay
	stop  []bool
	now   func() int64
	after func(d int64, f func())
}

func newHarness(t *confTrace, now func() int64, after func(d int64, f func())) *harness {
	h := &harness{
		t: t, log: &confLog{StopAt: make([]int64, t.n)},
		stop: make([]bool, t.n),
		now:  now, after: after,
	}
	for r := 0; r < t.n; r++ {
		h.ranks = append(h.ranks, &rankReplay{rk: protocol.NewRank(r, t.params)})
	}
	h.coord = protocol.NewCoordinator(t.n, t.params, h)
	return h
}

// AfterGrace and BroadcastStop implement protocol.CoordinatorRuntime.
func (h *harness) AfterGrace(f func()) func() {
	h.after(int64(h.t.params.Grace), f)
	return func() {}
}

func (h *harness) BroadcastStop() {
	h.log.Broadcasts = append(h.log.Broadcasts, h.now())
	for r := 0; r < h.t.n; r++ {
		r := r
		h.after(h.t.lat[r], func() {
			if !h.stop[r] {
				h.stop[r] = true
				h.log.StopAt[r] = h.now()
			}
		})
	}
}

// send routes a rank's state message to the coordinator after its latency.
func (h *harness) send(r int, st protocol.StateMsg) {
	h.log.Emitted = append(h.log.Emitted, fmt.Sprintf("r%d conv=%v seq=%d", r, st.Converged, st.Seq))
	h.after(h.t.lat[r], func() {
		h.log.Coord = append(h.log.Coord, fmt.Sprintf("t=%d from=%d conv=%v seq=%d", h.now(), st.From, st.Converged, st.Seq))
		h.coord.OnState(st)
	})
}

// iterate performs rank r's iteration at the current instant.
func (h *harness) iterate(r int) {
	if st, ok := h.t.stepRank(r, h.ranks[r], h.now()); ok {
		h.send(r, st)
	}
}

// finish renders the final decision summary.
func (h *harness) finish() {
	reconf := ""
	for r, rs := range h.ranks {
		reconf += fmt.Sprintf("r%d[hb=%d recf=%d debt=%v] ", r, rs.rk.Heartbeats(), rs.rk.Reconfirms(), rs.rk.NeedReconfirm())
	}
	h.log.Final = fmt.Sprintf("msgs=%d rebroadcasts=%d stopped=%v %s",
		h.coord.Msgs(), h.coord.Rebroadcasts(), h.coord.Stopped(), reconf)
}

// replayDES drives the trace on the real discrete-event simulator, with
// rank processes — the engine's runtime.
func replayDES(t *confTrace) *confLog {
	sim := des.New()
	h := newHarness(t,
		func() int64 { return int64(sim.Now()) },
		func(d int64, f func()) { sim.After(des.Time(d), f) },
	)
	for r := 0; r < t.n; r++ {
		r := r
		sim.SpawnTask(fmt.Sprintf("rank%d", r), func(p *des.Proc) {
			var loop func(it int)
			loop = func(it int) {
				if it >= t.maxIt || h.stop[r] {
					return
				}
				p.SleepK(des.Time(t.step[r]), func() {
					if h.stop[r] {
						return
					}
					h.iterate(r)
					loop(it + 1)
				})
			}
			loop(0)
		})
	}
	sim.Run()
	h.finish()
	return h.log
}

// synthEvent / synthQueue: the synthetic in-memory runtime — a flat event
// heap ordered by (time, insertion), no simulator, no goroutines.
type synthEvent struct {
	at  int64
	seq int
	fn  func()
}

type synthQueue []*synthEvent

func (q synthQueue) Len() int { return len(q) }
func (q synthQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q synthQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *synthQueue) Push(x any)   { *q = append(*q, x.(*synthEvent)) }
func (q *synthQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// replaySynthetic drives the identical trace on the flat event loop.
func replaySynthetic(t *confTrace) *confLog {
	var (
		now int64
		seq int
		q   synthQueue
	)
	push := func(d int64, f func()) {
		heap.Push(&q, &synthEvent{at: now + d, seq: seq, fn: f})
		seq++
	}
	h := newHarness(t, func() int64 { return now }, push)
	for r := 0; r < t.n; r++ {
		r := r
		iters := 0
		var tick func()
		tick = func() {
			if h.stop[r] || iters >= t.maxIt {
				return
			}
			iters++
			h.iterate(r)
			push(t.step[r], tick)
		}
		push(t.step[r], tick)
	}
	for q.Len() > 0 {
		e := heap.Pop(&q).(*synthEvent)
		now = e.at
		e.fn()
	}
	h.finish()
	return h.log
}

// TestConformanceReplay is the drift guard: the two runtimes must reach
// identical protocol decisions on every seeded trace.
func TestConformanceReplay(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr := newConfTrace(seed)
			a := replayDES(tr)
			b := replaySynthetic(tr)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("runtimes diverged:\nDES:       %+v\nsynthetic: %+v", a, b)
			}
			// The trace is built to exercise the hardened paths: the run
			// must stop, rank 1 must have reconfirmed after its state
			// loss, and rank 3's slow stop must have forced rebroadcasts.
			if len(a.Broadcasts) == 0 {
				t.Fatal("no stop broadcast")
			}
			if a.Final == "" || a.StopAt[0] == 0 {
				t.Fatalf("incomplete decision log: %+v", a)
			}
			if tr.crash[1] != 0 && tr.lat[3] > 50000 {
				if wantSub := "r1[hb="; len(a.Final) > 0 && !containsReconfirm(a.Final) {
					t.Fatalf("rank 1 never reconfirmed (%s): %s", wantSub, a.Final)
				}
			}
		})
	}
}

func containsReconfirm(final string) bool {
	var hb, recf int
	var debt bool
	_, err := fmt.Sscanf(final[indexOf(final, "r1[hb="):], "r1[hb=%d recf=%d debt=%t]", &hb, &recf, &debt)
	return err == nil && recf >= 1 && !debt
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
