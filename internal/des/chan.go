package des

// Chan is an unbounded FIFO message queue in virtual time.
//
// Send never blocks (the queue is unbounded; flow control, when needed, is
// modelled explicitly by the layers above). RecvK (task.go) suspends the
// receiving process until a value is available. Values are delivered in send
// order and waiting receivers are served in arrival order, so channel
// behaviour is deterministic.
//
// Send may be called from scheduler context (event callbacks) as well as
// from processes; RecvK only from a process.
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

// Send enqueues v, or hands it to the oldest waiting receiver, if any.
// Sending on a closed channel panics.
func (c *Chan) Send(v any) {
	if c.closed {
		panic("des: send on closed Chan")
	}
	if c.waiters.Len() > 0 {
		w := c.waiters.Pop()
		w.recvSlot, w.hasSlot = v, true
		w.Unpark()
		return
	}
	c.buf.Push(v)
}

// Close marks the channel closed. Waiting and future receivers get (nil,
// false) once the buffer drains. Close is idempotent.
func (c *Chan) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.waiters.Items() {
		w.recvSlot, w.hasSlot = nil, false
		w.Unpark()
	}
	c.waiters.Clear()
}

// Gate holds processes (WaitK, task.go) until it is opened; once open it
// holds nobody until Reset. It models one-shot conditions such as "stop signal
// received" and, reset between rounds, recurring ones such as "the next
// delivery arrived".
type Gate struct {
	sim     *Simulator
	open    bool
	waiters []*Proc
	onOpen  func() // called once, first, by the next Open (OnOpen)
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
	if f := g.onOpen; f != nil {
		g.onOpen = nil
		f()
	}
	for _, w := range g.waiters {
		w.Unpark()
	}
	g.dropWaiters()
}

// Reset closes the gate again and forgets any process still waiting on it
// (pair it with an Open that has released them, or with the end of the
// session they belonged to).
func (g *Gate) Reset() {
	g.open = false
	g.onOpen = nil
	g.dropWaiters()
}

// OnOpen makes the next Open call fn before it releases anyone; nil
// withdraws it. It tells a party that polls the gate instead of waiting on
// it that the answer changed.
func (g *Gate) OnOpen(fn func()) { g.onOpen = fn }

func (g *Gate) dropWaiters() {
	clear(g.waiters)
	g.waiters = g.waiters[:0]
}

// IsOpen reports whether the gate has been opened.
func (g *Gate) IsOpen() bool { return g.open }
