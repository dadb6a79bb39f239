package des

// event is one scheduled activation. Events with equal timestamps execute
// in insertion order (seq), which is what makes the simulation
// deterministic. Exactly one of p and fn is set: p resumes a process (the
// wake-up of Spawn, Sleep and Unpark, carried in the event itself so that
// no closure is built per wake-up), fn is a callback given to Schedule.
type event struct {
	at  Time
	seq uint64
	fn  func()
	p   *Proc
}

// before is the queue order: timestamp, then insertion sequence. Sequence
// numbers are unique, so the order is total and every correct priority
// queue pops the same sequence — the property DES.md's validity column
// checks against the frozen container/heap baseline.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// The event queue is a binary min-heap of event values held in one slice:
// no per-event allocation, no interface boxing, and the comparison inlined
// into the sift loops. It is the winner of the measured ladder in DES.md
// (the losing rungs and the frozen baseline live in ladder_test.go). The
// sift loops move a hole instead of swapping: one copy per level.

// pushEvent adds e to heap h and returns the grown heap.
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
// The vacated slot is zeroed so a finished callback (and whatever it
// captured) is not retained by the slice's spare capacity.
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
