package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCP is the loopback-wire transport: every rank owns a listener on
// 127.0.0.1 and the mesh is fully connected with one TCP connection per
// directed pair, carrying the length-prefixed binary frames of codec.go.
// Shaping (delay, deterministic loss) is applied on the sender side by the
// link goroutine, which is also the connection's only writer, so per-link
// FIFO comes from TCP itself. Each inbound connection gets a receive
// goroutine that decodes frames and dispatches the destination rank's
// handler — the paper's "receiving threads activated on demand", here
// supplied by the Go runtime parking readers in the netpoller.
//
// All ranks live in one process (the two-"site" runs of examples/tcploop
// and the matrix's tcp cells), but every byte crosses a real socket: the
// kernel's buffering, framing, and scheduling are genuinely in the loop,
// which is what separates this transport from Chan.
type TCP struct {
	n        int
	handlers []Handler
	shapeMatrix
	listeners []net.Listener
	conns     [][]net.Conn // conns[from][to]: the from → to wire
	links     [][]*link
	closed    chan struct{}
	close     sync.Once
	started   bool
	mu        sync.Mutex // guards closing vs. reader registration
	closing   bool
	readers   sync.WaitGroup
	linkWG    sync.WaitGroup
	stats     counters
}

// NewTCP creates a TCP-loopback transport connecting n ranks. Listeners
// are not bound until Start.
func NewTCP(n int) *TCP {
	if n < 1 {
		panic("transport: need at least one rank")
	}
	return &TCP{
		n:           n,
		handlers:    make([]Handler, n),
		shapeMatrix: newShapeMatrix(n),
		closed:      make(chan struct{}),
	}
}

// Name implements Transport.
func (t *TCP) Name() string { return "tcp" }

// Size implements Transport.
func (t *TCP) Size() int { return t.n }

// SetHandler implements Transport.
func (t *TCP) SetHandler(r int, h Handler) { t.handlers[r] = h }

// Start implements Transport: it binds one loopback listener per rank,
// dials the full from → to mesh, and spawns the receive goroutines.
func (t *TCP) Start() error {
	if t.started {
		return fmt.Errorf("transport: tcp already started")
	}
	t.started = true
	for r, h := range t.handlers {
		if h == nil && t.n > 1 {
			return fmt.Errorf("transport: rank %d has no handler", r)
		}
	}
	t.listeners = make([]net.Listener, t.n)
	for r := 0; r < t.n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return fmt.Errorf("transport: binding rank %d: %w", r, err)
		}
		t.listeners[r] = ln
		go t.acceptLoop(r, ln)
	}
	t.conns = make([][]net.Conn, t.n)
	t.links = make([][]*link, t.n)
	for from := 0; from < t.n; from++ {
		t.conns[from] = make([]net.Conn, t.n)
		t.links[from] = make([]*link, t.n)
		for to := 0; to < t.n; to++ {
			if to == from {
				continue
			}
			conn, err := net.Dial("tcp", t.listeners[to].Addr().String())
			if err != nil {
				t.Close()
				return fmt.Errorf("transport: dialing %d → %d: %w", from, to, err)
			}
			// Hello frame: who this directed wire belongs to.
			if _, err := conn.Write([]byte{frameMagic, byte(from)}); err != nil {
				t.Close()
				return fmt.Errorf("transport: handshake %d → %d: %w", from, to, err)
			}
			t.conns[from][to] = conn
			w := bufio.NewWriter(conn)
			var frame []byte // reused: the link goroutine is this connection's only writer
			t.links[from][to] = newLink(t.shapes[from][to], t.closed, &t.linkWG, &t.stats, func(m Msg) error {
				frame = AppendMsg(frame[:0], m)
				if _, err := w.Write(frame); err != nil {
					return err
				}
				return w.Flush()
			})
		}
	}
	return nil
}

// acceptLoop accepts the n-1 inbound wires of rank r and spawns a reader
// for each.
func (t *TCP) acceptLoop(r int, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Register under the lock so Close's readers.Wait never races a
		// late Add; a conn accepted after Close began is dropped.
		t.mu.Lock()
		if t.closing {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.readers.Add(1)
		t.mu.Unlock()
		go t.readLoop(r, conn)
	}
}

// readLoop decodes frames arriving for rank r and dispatches its handler.
func (t *TCP) readLoop(r int, conn net.Conn) {
	defer t.readers.Done()
	br := bufio.NewReader(conn)
	var hello [2]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || hello[0] != frameMagic {
		conn.Close()
		return
	}
	h := t.handlers[r]
	// One frame and one Values buffer per connection, reused for every
	// message: the handler contract lets m.Values die with the call.
	var body []byte
	var vals []float64
	for {
		m, err := readMsg(br, &body, &vals)
		if err != nil {
			conn.Close()
			return
		}
		h(m)
	}
}

// Send implements Transport.
func (t *TCP) Send(from, to int, m Msg) error {
	if !t.started {
		return fmt.Errorf("transport: tcp not started")
	}
	if from == to {
		return fmt.Errorf("transport: self-send on rank %d", from)
	}
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	return t.links[from][to].send(m)
}

// Stats implements Transport.
func (t *TCP) Stats() Stats { return t.stats.snapshot() }

// Close implements Transport: it closes every listener and connection and
// waits for the receive goroutines to drain.
func (t *TCP) Close() error {
	t.close.Do(func() {
		t.mu.Lock()
		t.closing = true
		t.mu.Unlock()
		close(t.closed)
		for _, ln := range t.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, row := range t.conns {
			for _, c := range row {
				if c != nil {
					c.Close()
				}
			}
		}
	})
	t.readers.Wait()
	t.linkWG.Wait()
	return nil
}

var _ Transport = (*TCP)(nil)
