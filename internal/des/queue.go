package des

// Handler is the target of a scheduled event: the scheduler calls
// Fire(arg) with the argument given when the event was scheduled. A layer
// whose events all act on one kind of object makes the object its own
// Handler — marcel's CPU request completes a slice, netsim's Message
// delivers itself — so that scheduling allocates nothing: no closure is
// built to carry the object to the scheduler and back.
type Handler interface {
	Fire(arg uint64)
}

// funcEvent adapts a plain callback (Schedule, After) to Handler. A func
// value is pointer-shaped, so the conversion to the interface allocates
// nothing.
type funcEvent func()

func (f funcEvent) Fire(uint64) { f() }

// wakeProc is *Proc seen as the Handler of its own wake-up (SpawnTask,
// SleepK, Unpark): the event carries the process itself. It is a distinct
// type so that Proc's exported surface does not grow a Fire method.
type wakeProc Proc

func (w *wakeProc) Fire(uint64) {
	p := (*Proc)(w)
	p.sim.activate(p)
}

// event is one scheduled activation: at its time the scheduler calls
// h.Fire(arg). Events with equal timestamps execute in insertion order
// (seq), which is what makes the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	h   Handler
	arg uint64
}

// before is the queue order: timestamp, then insertion sequence. Sequence
// numbers are unique, so the order is total and every correct priority
// queue pops the same sequence — the property DES.md's validity column
// checks against the frozen container/heap baseline.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// lanes is the pending-event set. Events due later than the clock wait in
// a binary min-heap of event values (no per-event allocation, no interface
// boxing, the comparison inlined into hole-moving sift loops); events
// scheduled at the current instant — about half of a real cell's events:
// Unpark, Chan hand-offs, task start-ups, opened gates — wait in a FIFO
// ring and never pay a sift. DES.md holds the measured ladder that chose
// the pair (the frozen baseline lives in ladder_test.go, the losing rungs
// are recorded rows there).
//
// The pair pops in exact (at, seq) order. The ring only ever holds events
// at the current time now: one enters when it is pushed with at == now,
// and the clock does not advance while the ring is non-empty. A heap event
// at now was pushed while the clock was earlier — otherwise it would be in
// the ring — hence before every ring entry, so its seq is smaller than
// theirs; and the ring is FIFO in seq. Popping the heap while its top is
// at now, then the ring, then the heap's later events is therefore the
// order a single priority queue would produce.
type lanes struct {
	heap []event
	ring []event // circular; len is zero or a power of two
	head int     // index of the oldest ring entry
	n    int     // ring entries
}

func (q *lanes) len() int { return len(q.heap) + q.n }

// push files e, which must not be due before now.
//
//lint:hotpath
func (q *lanes) push(now Time, e event) {
	if e.at != now {
		q.heap = pushEvent(q.heap, e)
		return
	}
	if q.n == len(q.ring) {
		q.growRing()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = e
	q.n++
}

// growRing doubles the ring, unrolling it to start at index zero.
func (q *lanes) growRing() {
	grown := make([]event, max(16, 2*len(q.ring)))
	k := copy(grown, q.ring[q.head:])
	copy(grown[k:], q.ring[:q.head])
	q.ring, q.head = grown, 0
}

// next returns the timestamp of the event pop would return.
func (q *lanes) next(now Time) (at Time, ok bool) {
	if q.n > 0 {
		return now, true
	}
	if len(q.heap) > 0 {
		return q.heap[0].at, true
	}
	return 0, false
}

// pop removes and returns the earliest event of a non-empty set; now is
// the timestamp of the previous pop (the clock). Vacated slots are zeroed
// so a finished handler is not retained by spare capacity.
//
//lint:hotpath
func (q *lanes) pop(now Time) event {
	if q.n == 0 || (len(q.heap) > 0 && q.heap[0].at <= now) {
		var e event
		q.heap, e = popEvent(q.heap)
		return e
	}
	e := q.ring[q.head]
	q.ring[q.head] = event{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return e
}

// pushEvent adds e to heap h and returns the grown heap. The sift loops
// move a hole instead of swapping: one copy per level.
//
//lint:hotpath
func pushEvent(h []event, e event) []event {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	return h
}

// popEvent removes and returns the earliest event of the non-empty heap h.
//
//lint:hotpath
func popEvent(h []event) ([]event, event) {
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n == 0 {
		return h, top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return h, top
}
