// Package transport carries the AIAC protocol's point-to-point messages
// between the ranks of a *native* (wall-clock) execution — the
// communication layer under internal/backend, playing the role
// internal/netsim plays under the simulated environments.
//
// A Transport connects n ranks with directed FIFO links. Its contract
// mirrors the feature list of the paper's §6:
//
//   - Send is a blocking point-to-point primitive: it returns once the
//     message has been handed over the link (for the in-process transport,
//     dispatched to the receiver's handler; for the TCP transport, written
//     to the socket at its shaped departure time). A caller that wants the
//     paper's "send only if the previous send has terminated" policy builds
//     it on top with one sender goroutine per channel — exactly what
//     internal/backend does.
//   - Receptions happen in threads activated on demand: every link (or
//     TCP connection) has a receive goroutine that decodes arriving
//     messages and invokes the destination rank's handler.
//   - Per-link shaping gives the native execution an analogue of the
//     simulated grids and scenarios: a fixed one-way delay models a slow
//     site uplink, and a deterministic loss rate models a lossy WAN.
//     Only data messages (MsgData) are droppable — control traffic
//     (state, stop, reduction) rides reliable links, matching the
//     simulator, where loss applies to netsim.Unreliable() sends only.
//
// Two implementations exist: Chan (in-process channels, the fastest
// possible link) and TCP (a real TCP-loopback wire using the compact
// binary codec of codec.go), so the same solver can be measured both at
// memory speed and over an actual network stack.
package transport

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// MsgType tags a protocol message.
type MsgType byte

const (
	// MsgData is a block of iterate values (droppable under loss shaping).
	MsgData MsgType = 1 + iota
	// MsgState reports a local-convergence change to the coordinator.
	MsgState
	// MsgStop is the coordinator's halt broadcast.
	MsgStop
	// MsgReduce carries one rank's contribution to a global reduction.
	MsgReduce
	// MsgReduceResult carries a reduction's result back to a rank.
	MsgReduceResult
)

// Msg is one message on a link. The field meaning depends on Type:
// data messages use Key (send-plan channel id), Seq (iteration), Lo
// (global index of Values[0]) and Values; state messages use Seq and Flag
// (converged); reductions use Seq (round) and Values[0].
type Msg struct {
	Type MsgType
	From int32
	Key  int32
	Seq  int32
	Lo   int32
	Flag bool
	// Values is borrowed on both sides of a link: the sender may reuse it
	// once Send returns, and a Handler may read it only until it returns.
	Values []float64
}

// Handler consumes inbound messages for one rank. It is invoked from the
// transport's receive goroutines and must not block for long. m.Values is
// valid only for the duration of the call: the in-process transport hands
// over the sender's own slice, which the sender reuses once Send returns,
// and the TCP transport decodes every frame of a connection into one
// reused buffer. A handler that keeps values past its return copies them.
type Handler func(Msg)

// Shaping is the per-link network model applied to a directed link.
type Shaping struct {
	// Delay is the one-way latency added to every message. Messages on a
	// link remain FIFO; delivery is pipelined (a message's departure is
	// its enqueue time plus Delay, not serialized behind its
	// predecessor's delay).
	Delay time.Duration
	// Loss is the drop probability applied to MsgData messages. Drops are
	// deterministic per (Seed, Key, per-key sequence number), so a run's
	// drop pattern is reproducible and identical across transports.
	Loss float64
	// Seed selects the deterministic loss stream.
	Seed int64
}

// Stats counts a transport's traffic.
type Stats struct {
	// Messages and Bytes count delivered messages and their wire size
	// (both transports use the codec's exact frame size, so the in-process
	// transport reports the bytes its messages would occupy on the wire).
	Messages uint64
	Bytes    uint64
	// Dropped counts messages discarded by loss shaping.
	Dropped uint64
}

// Transport connects Size ranks with shaped, FIFO, directed links.
//
// Usage: SetHandler for every rank and SetShaping/ShapeAll as needed, then
// Start, then Send freely from any goroutine, then Close. Handlers and
// shaping are fixed after Start.
type Transport interface {
	// Name identifies the implementation ("chan", "tcp").
	Name() string
	// Size returns the number of ranks.
	Size() int
	// SetHandler registers rank r's inbound dispatch. Must precede Start.
	SetHandler(r int, h Handler)
	// SetShaping shapes the directed link from → to. Must precede Start.
	SetShaping(from, to int, s Shaping)
	// ShapeAll applies s to every link. Must precede Start.
	ShapeAll(s Shaping)
	// Start opens the links and spawns the receive goroutines.
	Start() error
	// Send blocks until the message has been handed over the link (or the
	// transport closed); m.Values is then free for the caller to reuse.
	// Self-sends (from == to) are invalid.
	Send(from, to int, m Msg) error
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
	// Close tears the links down, unblocking pending Sends with
	// ErrClosed. Idempotent.
	Close() error
}

// ErrClosed is returned by Send once the transport is closed.
var ErrClosed = errors.New("transport: closed")

// counters is the shared atomic implementation of Stats.
type counters struct {
	messages atomic.Uint64
	bytes    atomic.Uint64
	dropped  atomic.Uint64
}

func (c *counters) delivered(wireBytes int) {
	c.messages.Add(1)
	c.bytes.Add(uint64(wireBytes))
}

func (c *counters) snapshot() Stats {
	return Stats{
		Messages: c.messages.Load(),
		Bytes:    c.bytes.Load(),
		Dropped:  c.dropped.Load(),
	}
}

// Dropped reports whether the n-th data message (0-based) of send-plan
// channel key is lost under the given shaping. The decision is a pure
// function — a splitmix64-style hash of (seed, key, n) — so a run's drop
// pattern depends only on the per-key send sequence, never on goroutine
// scheduling, and the Chan and TCP transports drop identical messages.
func (s Shaping) Dropped(key int32, n uint64) bool {
	if s.Loss <= 0 {
		return false
	}
	x := uint64(s.Seed) ^ uint64(key)*0x9e3779b97f4a7c15 ^ n*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < s.Loss
}

// timerFloor is the shortest shaping wait a link hands to a runtime timer.
// On Linux the Go runtime's netpoller sleeps in whole milliseconds, so a
// shorter timer is rounded up to the next tick: on a 2-core Xeon (go1.24,
// median of 200) timers of 50 µs, 200 µs and 1 ms all fired after
// 1.057 ms, 1.5 ms after 2.112 ms and 5 ms after 5.127 ms. A wait below
// the floor is spent yielding (runtime.Gosched until due), which keeps
// sub-ms links to the microsecond; from 1 ms up the timer's error — a
// tenth of a millisecond or two — is small against the 5–60 ms WAN and
// ADSL delays, and yielding would keep a core busy for every in-flight
// message.
const timerFloor = time.Millisecond

// pending is one message waiting in a link's shaper queue.
type pending struct {
	m   Msg
	due time.Time
	ack chan error
}

// link is the shared shaper for one directed connection: a FIFO queue
// drained by one goroutine that holds each message until its due time,
// applies the loss model, and hands survivors to deliver. Both transports
// are built on it; they differ only in the deliver function (in-process
// handler dispatch vs an encoded socket write).
type link struct {
	shape   Shaping
	q       chan pending
	closed  chan struct{}
	deliver func(Msg) error
	seq     map[int32]uint64 // per-key data-message counter (loss stream)
	stats   *counters
}

// newLink spawns the link's shaper goroutine, registered in wg so the
// owning transport's Close can wait for handler dispatch to cease before
// returning (callers tear their handler state down right after Close).
func newLink(shape Shaping, closed chan struct{}, wg *sync.WaitGroup, stats *counters, deliver func(Msg) error) *link {
	l := &link{
		shape:   shape,
		q:       make(chan pending, 64),
		closed:  closed,
		deliver: deliver,
		seq:     make(map[int32]uint64),
		stats:   stats,
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.run()
	}()
	return l
}

// send enqueues m and blocks until the link has disposed of it.
func (l *link) send(m Msg) error {
	p := pending{m: m, due: time.Now().Add(l.shape.Delay), ack: make(chan error, 1)}
	select {
	case l.q <- p:
	case <-l.closed:
		return ErrClosed
	}
	select {
	case err := <-p.ack:
		return err
	case <-l.closed:
		return ErrClosed
	}
}

func (l *link) run() {
	for {
		var p pending
		select {
		case p = <-l.q:
		case <-l.closed:
			return
		}
		if wait := time.Until(p.due); wait >= timerFloor {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-l.closed:
				t.Stop()
				return
			}
		}
		// A wait below the timer floor is yielded out, to the microsecond.
		for time.Now().Before(p.due) {
			select {
			case <-l.closed:
				return
			default:
			}
			runtime.Gosched()
		}
		if p.m.Type == MsgData {
			n := l.seq[p.m.Key]
			l.seq[p.m.Key] = n + 1
			if l.shape.Dropped(p.m.Key, n) {
				// The sender is unaware of network loss: ack success.
				l.stats.dropped.Add(1)
				p.ack <- nil
				continue
			}
		}
		err := l.deliver(p.m)
		if err == nil {
			l.stats.delivered(MsgBytes(len(p.m.Values)))
		}
		p.ack <- err
	}
}

// shapeMatrix is the pre-Start shaping configuration shared by both
// transports.
type shapeMatrix struct {
	n      int
	shapes [][]Shaping
}

func newShapeMatrix(n int) shapeMatrix {
	m := shapeMatrix{n: n, shapes: make([][]Shaping, n)}
	for i := range m.shapes {
		m.shapes[i] = make([]Shaping, n)
	}
	return m
}

// SetShaping shapes the directed link from → to (pre-Start).
func (m *shapeMatrix) SetShaping(from, to int, s Shaping) { m.shapes[from][to] = s }

// ShapeAll applies s to every link (pre-Start).
func (m *shapeMatrix) ShapeAll(s Shaping) {
	for i := range m.shapes {
		for j := range m.shapes[i] {
			m.shapes[i][j] = s
		}
	}
}
