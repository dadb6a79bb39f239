package des

// The event-queue ladder behind DES.md: the frozen container/heap baseline
// the simulator shipped before, the queue it ships now and its heap lane
// alone, measured every time the table is made; the rungs that lost are
// recorded rows. Only the winner (queue.go) is compiled into the package;
// everything here exists to keep the table regenerable and the winner
// honest.
//
// A rung is "valid" when it pops the identical (at, seq) sequence as the
// frozen baseline on every op stream it is given: the streams recorded off
// real simulated cells (record_test.go) and the seeded random ones below.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// ladderQueue is the surface every measured rung is driven through. The
// interface call is paid equally by every measured row of the table.
type ladderQueue interface {
	push(e event)
	pop() event
	len() int
}

// queueVariant is a measured rung (DES.md's notes say what each is).
type queueVariant struct {
	name string
	new  func() ladderQueue
}

// shippedVariant names the rung that is queue.go.
const shippedVariant = "binary-value + now-lane"

func ladderVariants() []queueVariant {
	return []queueVariant{
		{"heap-baseline", func() ladderQueue { return &baselineQueue{} }},
		{"binary-value", func() ladderQueue { return &heapOnlyQueue{} }},
		{"binary-value + now-lane", func() ladderQueue { return &shippedQueue{} }},
	}
}

// ---- rung 0: the frozen baseline -----------------------------------------

// eventHeap is the pre-ladder queue, verbatim.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type baselineQueue struct{ h eventHeap }

func (q *baselineQueue) push(e event) {
	heap.Push(&q.h, &event{at: e.at, seq: e.seq, h: e.h, arg: e.arg})
}
func (q *baselineQueue) pop() event { return *heap.Pop(&q.h).(*event) }
func (q *baselineQueue) len() int   { return len(q.h) }

// ---- rung 1: the shipped heap alone --------------------------------------

type heapOnlyQueue struct{ h []event }

func (q *heapOnlyQueue) push(e event) { q.h = pushEvent(q.h, e) }
func (q *heapOnlyQueue) pop() (e event) {
	q.h, e = popEvent(q.h)
	return e
}
func (q *heapOnlyQueue) len() int { return len(q.h) }

// ---- rung 1a: the shipped queue ------------------------------------------

// shippedQueue is des.lanes with the clock the Simulator keeps beside it:
// the timestamp of the last pop.
type shippedQueue struct {
	q   lanes
	now Time
}

func (q *shippedQueue) push(e event) { q.q.push(q.now, e) }
func (q *shippedQueue) pop() event {
	e := q.q.pop(q.now)
	q.now = e.at
	return e
}
func (q *shippedQueue) len() int { return q.q.len() }

// ---- op streams and validity ---------------------------------------------

// opStream is a queue workload: ops[i] >= 0 pushes an event at that
// timestamp, popOp pops one. Sequence numbers are assigned by the replay.
type opStream struct {
	name string
	ops  []Time
}

const popOp Time = -1

// counts returns the stream's pushes, its pops, and how many pushes carry
// the same timestamp as the push before them.
func (s opStream) counts() (pushes, pops, ties int) {
	prev := popOp
	for _, o := range s.ops {
		if o == popOp {
			pops++
			continue
		}
		pushes++
		if o == prev {
			ties++
		}
		prev = o
	}
	return
}

// replayAgainstBaseline drives q and a fresh frozen baseline through the
// stream in lockstep and returns the index of the first pop at which their
// (at, seq) differ, or -1 when they never do.
func replayAgainstBaseline(s opStream, q ladderQueue) int {
	ref := &baselineQueue{}
	var seq uint64
	for i, o := range s.ops {
		if o != popOp {
			seq++
			ref.push(event{at: o, seq: seq})
			q.push(event{at: o, seq: seq})
			continue
		}
		want, got := ref.pop(), q.pop()
		if want.at != got.at || want.seq != got.seq {
			return i
		}
	}
	if ref.len() != q.len() {
		return len(s.ops)
	}
	return -1
}

// randomStream is a seeded schedule shaped like the simulator's worst
// habits: after every pop the "running event" schedules a burst at now+δ,
// δ drawn from a few small values so that many events tie on a timestamp,
// with the occasional far-future timer; the depth wanders between empty
// and fifteen hundred.
func randomStream(seed int64, n int) opStream {
	rng := rand.New(rand.NewSource(seed))
	deltas := []Time{0, 0, 0, 1, 1, 2, 7, 1000, 1000, 250000}
	target := 1 + rng.Intn(1500)
	var now Time
	ops := make([]Time, 0, n)
	pending := &baselineQueue{} // mirrors the stream, to know "now" and the depth
	var seq uint64
	for len(ops) < n {
		if rng.Intn(200) == 0 {
			target = 1 + rng.Intn(1500)
		}
		burst := rng.Intn(4)
		if pending.len() < target {
			burst++
		}
		for b := 0; b < burst; b++ {
			at := now + deltas[rng.Intn(len(deltas))]
			if rng.Intn(50) == 0 {
				at = now + Time(rng.Int63n(1e9))
			}
			seq++
			pending.push(event{at: at, seq: seq})
			ops = append(ops, at)
		}
		if pending.len() > 0 && (pending.len() >= target || rng.Intn(3) > 0) {
			now = pending.pop().at
			ops = append(ops, popOp)
		}
	}
	return opStream{name: fmt.Sprintf("random-%d", seed), ops: ops}
}

func randomStreams() []opStream {
	out := make([]opStream, 0, 4)
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, randomStream(seed, 30000))
	}
	return out
}

// validOn reports whether v reproduces the baseline pop order on every
// stream, and names the first stream it does not.
func validOn(v queueVariant, streams []opStream) (bool, string) {
	for _, s := range streams {
		if at := replayAgainstBaseline(s, v.new()); at >= 0 {
			return false, fmt.Sprintf("%s diverges at op %d", s.name, at)
		}
	}
	return true, ""
}

// ---- measurement ---------------------------------------------------------

// ladderDepths are the queue depths of the table: the benchmark ledger's
// des.queue_depth is 31 on adsl-spin and 669 on sync-exchange.
var ladderDepths = [3]int{8, 64, 1024}

// holdDeltas is the increment distribution of the hold-model measurement:
// a quarter of the events tie with the one just popped (wake-ups at now),
// the rest land uniformly within two mean separations.
func holdDeltas() []Time {
	rng := rand.New(rand.NewSource(20040426))
	d := make([]Time, 1<<12)
	for i := range d {
		if rng.Intn(4) > 0 {
			d[i] = Time(rng.Intn(2000))
		}
	}
	return d
}

// hold measures one pop plus one push with the queue held at depth
// entries (the classic hold model) and returns ns and allocations per
// pop+push pair.
func hold(v queueVariant, depth int) (ns, allocs float64) {
	deltas := holdDeltas()
	r := testing.Benchmark(func(b *testing.B) {
		q := v.new()
		var seq uint64
		for i := 0; i < depth; i++ {
			seq++
			q.push(event{at: deltas[i%len(deltas)], seq: seq})
		}
		// Let slice capacities reach steady state.
		for i := 0; i < 4*depth; i++ {
			e := q.pop()
			seq++
			q.push(event{at: e.at + deltas[i&(len(deltas)-1)], seq: seq})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := q.pop()
			seq++
			q.push(event{at: e.at + deltas[i&(len(deltas)-1)], seq: seq})
		}
	})
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N)
}

// replayNs times the stream through q alone — what the queue costs under a
// real cell's own mix of depths, ties and timer distances — and returns ns
// per pop (each with its push), the fastest of three passes.
func replayNs(s opStream, v queueVariant) float64 {
	_, pops, _ := s.counts()
	best := time.Duration(0)
	for pass := 0; pass < 3; pass++ {
		q := v.new()
		var seq uint64
		start := time.Now()
		for _, o := range s.ops {
			if o != popOp {
				seq++
				q.push(event{at: o, seq: seq})
			} else {
				q.pop()
			}
		}
		if d := time.Since(start); pass == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(max(1, pops))
}

// ladderRow is one measured line of DES.md.
type ladderRow struct {
	Name    string
	Valid   bool
	Why     string     // first divergence, when invalid
	Ns      [3]float64 // at ladderDepths
	Replay  []float64  // per recorded stream
	Allocs  float64    // per pop+push at the deepest depth
	Speedup float64    // baseline ns / this ns at the deepest depth
}

// measureLadder validates every measured rung on the recorded and the
// random streams, and times it under the hold model and on the recorded
// streams.
func measureLadder(recorded []opStream) []ladderRow {
	streams := append(append([]opStream(nil), recorded...), randomStreams()...)
	var rows []ladderRow
	for _, v := range ladderVariants() {
		row := ladderRow{Name: v.name}
		row.Valid, row.Why = validOn(v, streams)
		for _, s := range recorded {
			row.Replay = append(row.Replay, replayNs(s, v))
		}
		for i, d := range ladderDepths {
			row.Ns[i], row.Allocs = hold(v, d)
		}
		rows = append(rows, row)
	}
	last := len(ladderDepths) - 1
	for i := range rows {
		rows[i].Speedup = rows[0].Ns[last] / rows[i].Ns[last]
	}
	return rows
}

// ---- always-on tests -----------------------------------------------------

// TestLadderValidOnRandomStreams is the fast gate: every measured rung, the
// shipped queue included, pops the baseline's order on the seeded random streams.
// (The recorded-stream half of validity is TestRecordedStreamReplay.)
func TestLadderValidOnRandomStreams(t *testing.T) {
	streams := randomStreams()
	for _, s := range streams {
		pushes, pops, _ := s.counts()
		if pushes < 1000 || pops < 1000 {
			t.Fatalf("%s is degenerate: %d pushes, %d pops", s.name, pushes, pops)
		}
	}
	for _, v := range ladderVariants() {
		if ok, why := validOn(v, streams); !ok {
			t.Errorf("%s: %s", v.name, why)
		}
	}
}

// TestReplayDetectsDisorder proves the validity check can fail: a queue
// that breaks timestamp ties newest-first is caught.
func TestReplayDetectsDisorder(t *testing.T) {
	if at := replayAgainstBaseline(randomStream(1, 5000), &lifoTieQueue{}); at < 0 {
		t.Fatal("a newest-first tie-break replayed as valid")
	}
}

// lifoTieQueue orders equal timestamps by descending seq — the classic
// determinism bug of a heap keyed on time alone.
type lifoTieQueue struct{ baselineQueue }

func (q *lifoTieQueue) push(e event) {
	e.seq = ^e.seq
	q.baselineQueue.push(e)
}
func (q *lifoTieQueue) pop() event {
	e := q.baselineQueue.pop()
	e.seq = ^e.seq
	return e
}

// TestPopZeroesVacatedSlot: the slot a pop vacates must not keep the
// finished event's callback (or process) reachable through the slice's
// spare capacity.
func TestPopZeroesVacatedSlot(t *testing.T) {
	var h []event
	for i := 1; i <= 5; i++ {
		h = pushEvent(h, event{at: Time(i), seq: uint64(i), h: funcEvent(func() {}), arg: 1})
	}
	for n := len(h); n > 0; n-- {
		h, _ = popEvent(h)
		if e := h[:n][n-1]; e != (event{}) {
			t.Fatalf("slot %d not zeroed after pop: %+v", n-1, e)
		}
	}
	// The ring lane: every slot a pop vacates, wrap-around included.
	var q lanes
	for round := 0; round < 3; round++ {
		for i := 0; i < 11; i++ {
			q.push(0, event{seq: uint64(i + 1), h: funcEvent(func() {}), arg: 1})
		}
		for q.len() > 0 {
			q.pop(0)
		}
		for i, e := range q.ring {
			if e != (event{}) {
				t.Fatalf("round %d: ring slot %d not zeroed after pop: %+v", round, i, e)
			}
		}
	}
}
