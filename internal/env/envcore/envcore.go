// Package envcore is the shared machinery of the simulated middleware
// environments (internal/env/mpi, madmpi, pm2, orb). Each environment is an
// instance of envcore.Env with its own cost model and thread policy; the
// axes are exactly those the paper identifies as distinguishing the real
// middlewares (Table 4, §5.1, §6):
//
//   - per-message CPU cost and per-byte packing/marshaling cost on each
//     side (PM2's explicit packing, OmniORB's CDR encoding, MPI's memcpy);
//   - wire overhead (headers; GIOP adds the most);
//   - number of sending threads (1, 2, or one per destination);
//   - receive model: a single receive thread that ingests messages strictly
//     one after another (MPICH/Madeleine), or receive threads created on
//     demand whose non-CPU dispatch latency overlaps across messages
//     (PM2, OmniORB), or no receive thread at all (mono-threaded
//     synchronous MPI, where receipts happen inside SyncExchangeK);
//   - protocol selection (MPICH/Madeleine can use a faster SAN protocol
//     intra-site);
//   - reachability requirements: client/server middleware (the ORB) can
//     relay around blocked site pairs, the SPMD middlewares require a
//     complete connection graph (§5.3).
//
// The message path is kept cheap on the host without touching any of the
// above. Every hop of every wire is delivered through one method of the
// environment (Env.deliver), handed to netsim as the same func value each
// time: what a hop needs — its destination, send time and size — is read
// back from the netsim.Message, so a transmit builds no closure. The value
// snapshot a sender takes per target per iteration comes from the
// environment's free list (Endpoint.Snapshot) and is handed over with
// Outgoing.Pooled: from then on the environment owns it, and it dies — goes
// back on the list — at the instant the receiving endpoint's data sink has
// returned, or the message is dropped, or the send is refused; a sink copies
// what it keeps. Buffers a caller allocated itself (Pooled unset) are never
// recycled. The middleware threads and the operations that take virtual
// time (eventloop.go) build their continuations once per thread or
// endpoint, not once per message.
package envcore

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/netsim"
	"aiac/internal/trace"
)

// RecvModel selects the receive-side threading of an environment.
type RecvModel int

const (
	// RecvSync has no receive thread: data messages queue until the
	// application calls SyncExchangeK (mono-threaded MPI).
	RecvSync RecvModel = iota
	// RecvSingleThread ingests data messages with one thread, strictly
	// serially: dispatch latency and CPU cost of message k delay message
	// k+1.
	RecvSingleThread
	// RecvOnDemand spawns a short-lived handler thread per message:
	// dispatch latencies overlap; only CPU costs contend.
	RecvOnDemand
)

func (m RecvModel) String() string {
	switch m {
	case RecvSync:
		return "in-place (mono-threaded)"
	case RecvSingleThread:
		return "one receiving thread"
	case RecvOnDemand:
		return "receiving threads created on demand"
	default:
		return fmt.Sprintf("RecvModel(%d)", int(m))
	}
}

// CostModel is the per-environment communication cost structure.
type CostModel struct {
	// HeaderBytes is the fixed wire overhead per message.
	HeaderBytes int
	// WireOverheadPerByte inflates the payload on the wire (CDR padding
	// and type tags for the ORB; zero for raw buffers).
	WireOverheadPerByte float64
	// PackNsPerByte / UnpackNsPerByte are CPU nanoseconds per payload
	// byte for marshaling on each side.
	PackNsPerByte   float64
	UnpackNsPerByte float64
	// SendCPU / RecvCPU are fixed per-message CPU costs (protocol stack).
	SendCPU des.Time
	RecvCPU des.Time
	// SendLatency / RecvLatency are fixed non-CPU per-message dispatch
	// latencies (socket turnaround, thread wakeup). On the receive side
	// they serialise under RecvSingleThread and overlap under
	// RecvOnDemand — the mechanical difference behind Table 2 vs Table 3.
	SendLatency des.Time
	RecvLatency des.Time
}

// Options configures an environment instance.
type Options struct {
	Name        string
	Costs       CostModel
	SendThreads int
	RecvModel   RecvModel
	// RecvThreads is the size of the receive thread pool under
	// RecvSingleThread (Table 4 gives MPICH/Madeleine two receiving
	// threads on the non-linear problem). Default 1.
	RecvThreads  int
	ThreadPolicy string
	// ProtoFor, when non-nil, selects the network protocol for a pair of
	// nodes (MPICH/Madeleine multi-protocol feature).
	ProtoFor func(net *netsim.Network, from, to int) string
	// Relay enables application-level routing around blocked site pairs
	// (the ORB's client/server architecture, §5.3). Without it, New
	// fails on grids whose connection graph is incomplete.
	Relay bool
	// Backpressure makes a data send count as in-progress until the
	// *receive machinery has consumed it*, not merely until network
	// delivery: MPI rendezvous semantics, where a large send completes
	// only once the matching receive is posted and drained. Combined
	// with a single receive thread this throttles every sender behind
	// the receiver's serial ingestion — the mechanical source of
	// MPICH/Madeleine's penalty under the sparse problem's all-to-all
	// traffic (Table 2). RPC/oneway middlewares (PM2, the ORB) buffer
	// and complete at delivery.
	Backpressure bool
	// RendezvousBytes is the eager/rendezvous protocol switch-over of an
	// MPI-style environment (meaningful only with Backpressure). Data
	// messages at or above this payload size pay a request-to-send /
	// clear-to-send handshake — one extra network round-trip — before
	// the data moves, and complete only at the matching receive. Smaller
	// messages are sent eagerly. Zero means every data message uses
	// rendezvous.
	RendezvousBytes int
	// RecvWindow bounds how many undispatched data messages a receiver
	// may buffer before eager senders are throttled (their send counts
	// as in-progress until the receive machinery consumes it) — the
	// message-level analogue of TCP flow control. Zero means the default
	// of 16.
	RecvWindow int
	// SocketBufBytes models the kernel socket buffering of a 2004 TCP
	// stack (16-64 KiB). Under RecvSingleThread, the portion of a data
	// message beyond the buffer cannot be accepted until the receive
	// thread actively drains the connection, so the thread spends
	// (wire bytes - buffer) at the path's wire rate per message — and
	// concurrent inbound transfers serialise behind it. Environments
	// with receive threads created on demand drain connections
	// concurrently and never stall this way. Zero means unlimited
	// buffering (no stall).
	SocketBufBytes int
	// Trace, when non-nil, records message deliveries.
	Trace *trace.Collector
}

// Opt and WithEventLoop do nothing: every environment runs its threads on
// the event loop. They stay, with matrix.NewEnv's ignored trailing ...Opt,
// only because the files under benchmark/ compile against them; the next
// benchmark-only PR deletes all three (ROADMAP item 8(b)).
type Opt func(*Options)

// WithEventLoop returns an option that changes nothing (see Opt).
func WithEventLoop() Opt { return func(*Options) {} }

// Env is a middleware environment instantiated over a grid. It implements
// aiac.Env.
type Env struct {
	grid *cluster.Grid
	opts Options
	eps  []*Endpoint

	// deliverFn is the deliver method as a func value, built once: the one
	// callback every hop of every message hands to netsim.Send.
	deliverFn func(*netsim.Message)

	// bufs recycles value snapshots (Endpoint.Snapshot): bufs[c] holds
	// released buffers of capacity 1<<c.
	bufs [][][]float64
}

// New builds the environment and starts its receive/send threads. It
// returns an error if the grid's connection graph does not meet the
// environment's deployment requirements.
func New(grid *cluster.Grid, opts Options) (*Env, error) {
	if opts.SendThreads < 1 {
		opts.SendThreads = 1
	}
	n := grid.Size()
	if !opts.Relay {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !grid.Net.Reachable(grid.Machines[i].Node, grid.Machines[j].Node) {
					return nil, fmt.Errorf("env %s: deployment requires a complete connection graph, but nodes %d and %d cannot see each other (§5.3)",
						opts.Name, i, j)
				}
			}
		}
	}
	e := &Env{grid: grid, opts: opts, eps: make([]*Endpoint, n)}
	e.deliverFn = e.deliver
	for r := 0; r < n; r++ {
		e.eps[r] = newEndpoint(e, r)
	}
	for _, ep := range e.eps {
		ep.startTasks()
	}
	return e, nil
}

// MustNew is New that panics on deployment errors (for tests and grids
// known to be fully connected).
func MustNew(grid *cluster.Grid, opts Options) *Env {
	e, err := New(grid, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Name implements aiac.Env.
func (e *Env) Name() string { return e.opts.Name }

// ThreadPolicy implements aiac.Env (the Table 4 row).
func (e *Env) ThreadPolicy() string { return e.opts.ThreadPolicy }

// Comm implements aiac.Env.
func (e *Env) Comm(r int) aiac.Comm { return e.eps[r] }

// Grid returns the grid the environment runs on.
func (e *Env) Grid() *cluster.Grid { return e.grid }

// wireKind discriminates middleware messages.
type wireKind int

const (
	wData wireKind = iota
	wState
	wStop
	wBarArrive
	wBarRelease
	wRedContrib
	wRedResult
)

// wire is one middleware message on the network.
type wire struct {
	kind    wireKind
	from    int
	finalTo int // differs from the addressed node when relayed
	data    aiac.DataMsg
	state   aiac.StateMsg
	round   int
	redOp   redOp
	values  []float64
	// payloadBytes is the application payload size (pre-inflation).
	payloadBytes int
	// senderEp/key identify the in-flight send channel to release on
	// delivery.
	senderEp *Endpoint
	key      int
	hasKey   bool
	// rendezvous marks a data message whose send completes only at the
	// matching receive (MPI large-message protocol).
	rendezvous bool
	// pooled marks data.Values as a snapshot buffer of the environment
	// (Outgoing.Pooled): it goes back to the free list the moment the
	// message has been incorporated or dropped.
	pooled bool
	// msgIdx is the trace.Collector index of this message's delivery
	// record, set just before final delivery so receivers can bind it as a
	// wait cause (-1 when tracing is off).
	msgIdx int
}

// msgKind maps a wire kind onto the trace taxonomy.
func (k wireKind) msgKind() trace.MsgKind {
	switch k {
	case wData:
		return trace.MsgData
	case wState:
		return trace.MsgState
	case wStop:
		return trace.MsgStop
	case wBarArrive, wBarRelease:
		return trace.MsgBarrier
	default:
		return trace.MsgReduce
	}
}

// traceIter is the iteration / sequence tag recorded for a message.
func (w *wire) traceIter() int {
	switch w.kind {
	case wData:
		return w.data.Iter
	case wState:
		return w.state.Seq
	case wBarArrive, wBarRelease, wRedContrib, wRedResult:
		return w.round
	}
	return 0
}

// controlPayloadBytes is the application payload of control messages.
const controlPayloadBytes = 16

// Endpoint is one rank's attachment to the environment. It implements
// aiac.Comm.
type Endpoint struct {
	env  *Env
	rank int

	inbox    *des.Chan // data wires awaiting the receive machinery
	syncData *des.Chan // data wires awaiting SyncExchangeK (RecvSync)
	sendq    *des.Chan // queued async sends

	inflight  map[int]bool
	freeSink  func(key int) // told of every inflight channel released
	dataSink  func(aiac.DataMsg)
	stateSink func(p *des.Proc, st aiac.StateMsg)
	stop      *des.Gate

	// Sync-exchange bookkeeping for the threaded receive models, where
	// data messages are incorporated by receive threads rather than
	// drained from syncData: syncRecvd counts deliveries, syncTarget the
	// cumulative count SyncExchangeK is waiting for, and syncWake is the
	// gate parking the exchanging process until the next delivery — one
	// gate for the endpoint's life, reset before every wait.
	syncRecvd  int
	syncTarget int
	syncWake   *des.Gate

	// handlerName names the handler threads created on demand per message
	// (RecvOnDemand).
	handlerName string

	// exchange is the SyncExchangeK state machine (eventloop.go), built by
	// the first exchange.
	exchange *exchangeK

	barrierRound int
	barrierGates map[int]*des.Gate
	barArrivals  map[int]int // rank 0 only

	redRound   int
	redGates   map[int]*des.Gate
	redResults map[int][]float64
	redPending map[int]*redState // rank 0 only

	// Wait-cause bindings for the trace: the Msgs index of the delivery
	// that opened each gate, recorded at the instrumentation point that
	// knows it (receive / deliverData) and consumed by the waiting calls
	// when they record their trace.Wait.
	barCause    map[int]int
	redCause    map[int]int
	lastDeliver int // latest data delivery to this endpoint, -1 if none
}

// takeCause pops the recorded wake-cause message index for round; -1 when
// none was recorded (tracing off, or the gate never opened).
func takeCause(m map[int]int, round int) int {
	idx, ok := m[round]
	if !ok {
		return -1
	}
	delete(m, round)
	return idx
}

// redOp selects the reduction operator.
type redOp int

const (
	redMax redOp = iota
	redSum
)

type redState struct {
	count int
	acc   []float64
}

func newEndpoint(e *Env, rank int) *Endpoint {
	sim := e.grid.Sim
	return &Endpoint{
		env:          e,
		rank:         rank,
		inbox:        des.NewChan(sim),
		syncData:     des.NewChan(sim),
		sendq:        des.NewChan(sim),
		inflight:     make(map[int]bool),
		stop:         des.NewGate(sim),
		syncWake:     des.NewGate(sim),
		handlerName:  fmt.Sprintf("%s-h@%d", e.opts.Name, rank),
		barrierGates: make(map[int]*des.Gate),
		barArrivals:  make(map[int]int),
		redGates:     make(map[int]*des.Gate),
		redResults:   make(map[int][]float64),
		redPending:   make(map[int]*redState),
		barCause:     make(map[int]int),
		redCause:     make(map[int]int),
		lastDeliver:  -1,
	}
}

// wireBytes is the on-the-wire size of a message.
func (ep *Endpoint) wireBytes(payloadBytes int) int {
	c := ep.env.opts.Costs
	return c.HeaderBytes + payloadBytes + int(c.WireOverheadPerByte*float64(payloadBytes))
}

// transmit puts w on the network towards finalTo, relaying if the pair is
// blocked and the environment supports it. Callable from processes and
// scheduler context.
func (ep *Endpoint) transmit(w *wire, finalTo int) {
	net := ep.env.grid.Net
	to := finalTo
	if !net.Reachable(ep.rank, to) {
		if !ep.env.opts.Relay {
			panic(fmt.Sprintf("env %s: node %d cannot reach %d and relaying is unsupported", ep.env.opts.Name, ep.rank, to))
		}
		relay := ep.findRelay(to)
		if relay < 0 {
			panic(fmt.Sprintf("env %s: no relay between %d and %d", ep.env.opts.Name, ep.rank, to))
		}
		to = relay
	}
	proto := ""
	if ep.env.opts.ProtoFor != nil {
		proto = ep.env.opts.ProtoFor(net, ep.rank, to)
	}
	w.finalTo = finalTo
	nbytes := ep.wireBytes(w.payloadBytes)
	var err error
	if w.kind == wData {
		// Data-plane traffic is loss-eligible under lossy scenarios; the
		// algorithm tolerates a lost update (the next send carries newer
		// values). Control traffic stays reliable, as over TCP.
		_, err = net.Send(ep.rank, to, nbytes, w, proto, ep.env.deliverFn, netsim.Unreliable())
	} else {
		_, err = net.Send(ep.rank, to, nbytes, w, proto, ep.env.deliverFn)
	}
	if err != nil {
		panic(fmt.Sprintf("env %s: transmit: %v", ep.env.opts.Name, err))
	}
}

// deliver is the arrival of one hop of a wire at the node it was addressed
// to: everything the hop needs is in the message (From, To, SentAt, Bytes)
// and in the wire it carries. Runs in scheduler context.
//
//lint:hotpath
func (e *Env) deliver(m *netsim.Message) {
	w := m.Payload.(*wire)
	dst := e.eps[m.To]
	if m.Dropped {
		// Lost to the loss model or to a crashed endpoint. Release the
		// sender's in-flight channel (the paper's send-skipping policy
		// is per channel; a loss must not jam it forever) and discard.
		if w.hasKey && w.senderEp != nil {
			w.senderEp.release(w.key)
		}
		e.releaseValues(w)
		return
	}
	if w.hasKey && w.senderEp != nil && w.finalTo == dst.rank && !w.rendezvous {
		window := e.opts.RecvWindow
		if window <= 0 {
			window = 16
		}
		if dst.inbox.Len() < window {
			// Eager send: terminated on delivery; the next
			// TrySendData for this channel may proceed.
			w.senderEp.release(w.key)
		} else {
			// Receiver congested: flow control holds the channel
			// until the receive machinery consumes this message.
			w.rendezvous = true
		}
	}
	if w.finalTo != dst.rank {
		// We are a relay hop: forward without unmarshaling the
		// application payload (the ORB forwards GIOP bodies).
		dst.transmit(w, w.finalTo)
		return
	}
	w.msgIdx = e.opts.Trace.AddMsg(trace.Msg{
		From: w.from, To: dst.rank, Sent: m.SentAt, Recv: m.DeliverAt,
		Kind: w.kind.msgKind(), Bytes: m.Bytes, Iter: w.traceIter(),
	})
	dst.receive(w)
}

// findRelay returns a rank that can see both this endpoint and to.
func (ep *Endpoint) findRelay(to int) int {
	net := ep.env.grid.Net
	for r := range ep.env.eps {
		if r == ep.rank || r == to {
			continue
		}
		if net.Reachable(ep.rank, r) && net.Reachable(r, to) {
			return r
		}
	}
	return -1
}

// receive handles a wire addressed to this endpoint. Runs in scheduler
// context (network delivery). Control messages are processed immediately;
// data messages go to the receive machinery.
func (ep *Endpoint) receive(w *wire) {
	switch w.kind {
	case wData:
		if ep.env.opts.RecvModel == RecvSync {
			ep.syncData.Send(w)
		} else {
			ep.inbox.Send(w)
		}
	case wState:
		if ep.stateSink != nil {
			ep.stateSink(nil, w.state)
		}
	case wStop:
		ep.stop.Open()
	case wBarArrive:
		ep.barArrivals[w.round]++
		if ep.barArrivals[w.round] == ep.env.grid.Size() {
			delete(ep.barArrivals, w.round)
			for r := range ep.env.eps {
				ep.control(wire{kind: wBarRelease, from: ep.rank, round: w.round}, r)
			}
		}
	case wBarRelease:
		if g, ok := ep.barrierGates[w.round]; ok {
			delete(ep.barrierGates, w.round)
			ep.barCause[w.round] = w.msgIdx
			g.Open()
		}
	case wRedContrib:
		st := ep.redPending[w.round]
		if st == nil {
			st = &redState{acc: append([]float64(nil), w.values...)}
			ep.redPending[w.round] = st
		} else {
			for i, v := range w.values {
				switch w.redOp {
				case redMax:
					if v > st.acc[i] {
						st.acc[i] = v
					}
				case redSum:
					st.acc[i] += v
				}
			}
		}
		st.count++
		if st.count == ep.env.grid.Size() {
			delete(ep.redPending, w.round)
			for r := range ep.env.eps {
				ep.control(wire{kind: wRedResult, from: ep.rank, round: w.round, values: st.acc}, r)
			}
		}
	case wRedResult:
		ep.redResults[w.round] = w.values
		ep.redCause[w.round] = w.msgIdx
		if g, ok := ep.redGates[w.round]; ok {
			g.Open()
		}
	default:
		panic("envcore: unknown wire kind")
	}
}

// control transmits a small control wire to rank r (no CPU charge: control
// traffic is out-of-band and its handling cost is negligible, §4.3).
func (ep *Endpoint) control(w wire, to int) {
	w.payloadBytes = controlPayloadBytes
	ep.transmit(&w, to)
}

// --- aiac.Comm implementation ---

// Rank implements aiac.Comm.
func (ep *Endpoint) Rank() int { return ep.rank }

// Size implements aiac.Comm.
func (ep *Endpoint) Size() int { return ep.env.grid.Size() }

// CanSendData reports whether TrySendData for this channel would accept —
// i.e. no previous send of the same channel is still in flight. It lets a
// caller skip building the value snapshot for a send that would only be
// discarded (the dominant allocation of a fast-spinning asynchronous rank).
func (ep *Endpoint) CanSendData(key int) bool {
	return !ep.inflight[key]
}

// release ends the in-flight send on channel key and tells the free sink.
func (ep *Endpoint) release(key int) {
	delete(ep.inflight, key)
	if ep.freeSink != nil {
		ep.freeSink(key)
	}
}

// SetFreeSink implements aiac.Comm.
func (ep *Endpoint) SetFreeSink(fn func(key int)) { ep.freeSink = fn }

// TrySendData implements the paper's skip-if-busy asynchronous send.
func (ep *Endpoint) TrySendData(p *des.Proc, o aiac.Outgoing) bool {
	if ep.inflight[o.Key] {
		if o.Pooled {
			ep.env.recycle(o.Values)
		}
		return false
	}
	ep.inflight[o.Key] = true
	w := ep.dataWire(o)
	w.senderEp, w.key, w.hasKey = ep, o.Key, true
	ep.sendq.Send(w)
	return true
}

// dataWire wraps an outgoing data block for the network.
func (ep *Endpoint) dataWire(o aiac.Outgoing) *wire {
	return &wire{
		kind:         wData,
		from:         ep.rank,
		finalTo:      o.To,
		data:         aiac.DataMsg{From: ep.rank, Iter: o.Iter, Key: o.Key, Lo: o.Lo, Values: o.Values},
		payloadBytes: 8 * len(o.Values),
		pooled:       o.Pooled,
	}
}

// Snapshot copies src into a buffer from the environment's free list. The
// copy belongs to the caller until it is passed on as the Values of an
// Outgoing with Pooled set; from then on it belongs to the environment,
// which recycles it at the instant the receiver's data sink has returned
// (or the message is dropped). A data sink must therefore copy what it
// keeps, as the engine's sink does.
func (ep *Endpoint) Snapshot(src []float64) []float64 {
	e := ep.env
	c := bits.Len(uint(max(len(src), 1) - 1))
	var buf []float64
	if c < len(e.bufs) && len(e.bufs[c]) > 0 {
		free := e.bufs[c]
		buf, e.bufs[c] = free[len(free)-1], free[:len(free)-1]
	} else {
		buf = make([]float64, 1<<c)
	}
	buf = buf[:len(src)]
	copy(buf, src)
	return buf
}

// releaseValues ends the life of w's values: a pooled snapshot returns to
// the free list, and either way the wire stops referring to them.
func (e *Env) releaseValues(w *wire) {
	if w.pooled {
		w.pooled = false
		e.recycle(w.data.Values)
	}
	w.data.Values = nil
}

// poisonReleased makes recycle overwrite every buffer it takes back with
// NaNs, so that a read after release cannot go unnoticed. Only tests set
// it (export_test.go).
var poisonReleased bool

// recycle returns a Snapshot buffer to the free list.
func (e *Env) recycle(buf []float64) {
	buf = buf[:cap(buf)]
	if poisonReleased {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	c := bits.TrailingZeros(uint(len(buf)))
	for len(e.bufs) <= c {
		e.bufs = append(e.bufs, nil)
	}
	e.bufs[c] = append(e.bufs[c], buf)
}

// SetDataSink implements aiac.Comm.
func (ep *Endpoint) SetDataSink(fn func(aiac.DataMsg)) { ep.dataSink = fn }

func (ep *Endpoint) deliverData(w *wire) {
	ep.lastDeliver = w.msgIdx
	if w.rendezvous && w.hasKey && w.senderEp != nil {
		// Rendezvous completion: the matching receive has now been
		// consumed, so the sender's next send on this channel may start.
		w.senderEp.release(w.key)
	}
	if ep.dataSink != nil {
		ep.dataSink(w.data)
	}
	ep.env.releaseValues(w)
	ep.syncRecvd++
	ep.syncWake.Open()
}

// socketDrain returns the time the receive thread spends pulling the part
// of a message that did not fit in the kernel socket buffer (see
// Options.SocketBufBytes).
func (ep *Endpoint) socketDrain(w *wire) des.Time {
	buf := ep.env.opts.SocketBufBytes
	if buf <= 0 {
		return 0
	}
	stalled := ep.wireBytes(w.payloadBytes) - buf
	if stalled <= 0 {
		return 0
	}
	path := ep.env.grid.Net.PathBetween(w.from, ep.rank, "")
	return des.Time(float64(stalled) / path.BottleneckBps * float64(time.Second))
}

// pathLatency returns the one-way network latency towards rank to.
func (ep *Endpoint) pathLatency(to int) des.Time {
	proto := ""
	if ep.env.opts.ProtoFor != nil {
		proto = ep.env.opts.ProtoFor(ep.env.grid.Net, ep.rank, to)
	}
	return ep.env.grid.Net.PathBetween(ep.rank, to, proto).Latency
}

// SetStateSink implements aiac.Comm.
func (ep *Endpoint) SetStateSink(fn func(p *des.Proc, st aiac.StateMsg)) { ep.stateSink = fn }

// BroadcastStop implements aiac.Comm. p may be nil (scheduler context).
func (ep *Endpoint) BroadcastStop(p *des.Proc) {
	for r := range ep.env.eps {
		ep.control(wire{kind: wStop, from: ep.rank}, r)
	}
}

// Stop implements aiac.Comm.
func (ep *Endpoint) Stop() *des.Gate { return ep.stop }

// ResetSession implements aiac.Comm.
func (ep *Endpoint) ResetSession() {
	ep.stop = des.NewGate(ep.env.grid.Sim)
	ep.inflight = make(map[int]bool)
	ep.syncRecvd, ep.syncTarget = 0, 0
	ep.syncWake.Reset()
	ep.lastDeliver = -1
}

// compile-time interface checks
var (
	_ aiac.Comm = (*Endpoint)(nil)
	_ aiac.Env  = (*Env)(nil)
)

// DefaultSendLatency and friends document the baseline middleware timing
// constants shared by the concrete environments (2004-era TCP stacks and
// user-level thread packages); each environment refines them.
const (
	DefaultSendLatency = 100 * time.Microsecond
	DefaultRecvLatency = 250 * time.Microsecond
)
