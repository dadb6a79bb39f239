package des

// Chan is an unbounded FIFO message queue in virtual time.
//
// Send never blocks (the queue is unbounded; flow control, when needed, is
// modelled explicitly by the layers above). Recv blocks the calling process
// until a value is available. Values are delivered in send order and blocked
// receivers are served in arrival order, so channel behaviour is
// deterministic.
//
// Send may be called from scheduler context (event callbacks) as well as
// from processes; Recv only from a process.
type Chan struct {
	sim     *Simulator
	buf     FIFO[any]
	waiters FIFO[*Proc]
	closed  bool
}

// NewChan returns an empty channel bound to sim.
func NewChan(sim *Simulator) *Chan { return &Chan{sim: sim} }

// Len returns the number of buffered (undelivered) values.
func (c *Chan) Len() int { return c.buf.Len() }

// Send enqueues v and wakes the oldest blocked receiver, if any.
// Sending on a closed channel panics.
func (c *Chan) Send(v any) {
	if c.closed {
		panic("des: send on closed Chan")
	}
	if c.waiters.Len() > 0 {
		w := c.waiters.Pop()
		w.recvSlot, w.hasSlot = v, true
		w.unpark()
		return
	}
	c.buf.Push(v)
}

// Close marks the channel closed. Blocked and future receivers get (nil,
// false) once the buffer drains. Close is idempotent.
func (c *Chan) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.waiters.Items() {
		w.recvSlot, w.hasSlot = nil, false
		w.unpark()
	}
	c.waiters.Clear()
}

// Recv blocks p until a value is available and returns it. ok is false when
// the channel is closed and drained.
func (c *Chan) Recv(p *Proc) (v any, ok bool) {
	if c.buf.Len() > 0 {
		return c.buf.Pop(), true
	}
	if c.closed {
		return nil, false
	}
	c.waiters.Push(p)
	p.park()
	v, ok = p.recvSlot, p.hasSlot
	p.recvSlot, p.hasSlot = nil, false
	return v, ok
}

// TryRecv returns a buffered value without blocking.
func (c *Chan) TryRecv() (v any, ok bool) {
	if c.buf.Len() == 0 {
		return nil, false
	}
	return c.buf.Pop(), true
}

// RecvTimeout blocks p for at most d. ok is false on timeout or close.
func (c *Chan) RecvTimeout(p *Proc, d Time) (v any, ok bool) {
	if v, ok := c.TryRecv(); ok {
		return v, true
	}
	if c.closed {
		return nil, false
	}
	fired, delivered := false, false
	c.waiters.Push(p)
	p.sim.After(d, func() {
		if delivered {
			return // value arrived first; this timer is stale
		}
		for i, w := range c.waiters.Items() {
			if w == p {
				c.waiters.Remove(i)
				fired = true
				p.unpark()
				return
			}
		}
	})
	p.park()
	delivered = true
	if fired {
		return nil, false
	}
	v, ok = p.recvSlot, p.hasSlot
	p.recvSlot, p.hasSlot = nil, false
	return v, ok
}

// Gate blocks processes until it is opened; once open it does not block
// again until Reset. It models one-shot conditions such as "stop signal
// received" and, reset between rounds, recurring ones such as "the next
// delivery arrived".
type Gate struct {
	sim     *Simulator
	open    bool
	waiters []*Proc
}

// NewGate returns a closed gate.
func NewGate(sim *Simulator) *Gate { return &Gate{sim: sim} }

// Open releases all current and future waiters. Idempotent. The waiter
// storage is kept, so a gate that is Reset and waited on again allocates
// nothing.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	for _, w := range g.waiters {
		w.unpark()
	}
	g.dropWaiters()
}

// Reset closes the gate again and forgets any process still waiting on it
// (pair it with an Open that has released them, or with the end of the
// session they belonged to).
func (g *Gate) Reset() {
	g.open = false
	g.dropWaiters()
}

func (g *Gate) dropWaiters() {
	clear(g.waiters)
	g.waiters = g.waiters[:0]
}

// IsOpen reports whether the gate has been opened.
func (g *Gate) IsOpen() bool { return g.open }

// Wait blocks p until the gate opens (returns immediately if already open).
func (g *Gate) Wait(p *Proc) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park()
}

// Barrier synchronises a fixed set of n processes: each caller of Wait
// blocks until all n have arrived, then all resume and the barrier resets
// for the next round.
type Barrier struct {
	sim     *Simulator
	n       int
	arrived int
	waiters []*Proc
	round   int
}

// NewBarrier returns a barrier for n parties. n must be positive.
func NewBarrier(sim *Simulator, n int) *Barrier {
	if n <= 0 {
		panic("des: barrier size must be positive")
	}
	return &Barrier{sim: sim, n: n}
}

// Round returns the number of completed barrier rounds.
func (b *Barrier) Round() int { return b.round }

// Wait blocks p until all n parties have called Wait for this round.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.round++
		for _, w := range b.waiters {
			w.unpark()
		}
		b.waiters = nil
		return
	}
	b.waiters = append(b.waiters, p)
	p.park()
}
