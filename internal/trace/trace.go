// Package trace records execution-flow traces of the iterative solvers:
// per-processor compute/idle spans and inter-processor messages, collected
// by the engine (which marks compute and idle intervals per iteration) and
// by the middleware environments (which mark message departures and
// arrivals). Rendering a trace as an ASCII Gantt chart reproduces the
// paper's Figures 1 and 2 (§4.1): the execution flow of a SISC algorithm,
// with idle gaps where every processor waits out the synchronous exchange,
// versus an AIAC algorithm whose processors never wait. MeanIdleFraction
// quantifies the same contrast for assertions and benchmarks.
//
// The compute timeline is run-length encoded. A rank spinning behind a slow
// link performs millions of back-to-back iterations of identical length, so
// a Span is a run: N iterations Iter .. Iter+N-1, each exactly (End-Start)/N
// long. AddSpan extends the rank's latest span instead of appending when the
// new interval continues it — same rank and kind, starts where the run
// ends, carries the next iteration number, has the run's stride. Nothing is
// lost: Span.At(k) for k = 0 .. Iters()-1 gives back, per rank, exactly the
// sequence of AddSpan calls. Duration-only views (Horizon, BusyIdle, Gantt)
// read runs as they read single spans; iteration-level readers (the
// critical-path walk, the Perfetto export) use Iter, Iters and the stride.
package trace

import (
	"fmt"
	"strings"

	"aiac/internal/des"
)

// Kind classifies a span.
type Kind int

const (
	// Compute is time spent iterating.
	Compute Kind = iota
	// Idle is time spent blocked waiting for communications (the white
	// spaces of Figure 1).
	Idle
)

// Span is one activity interval of one processor: a run of N back-to-back
// iterations of equal length, the first numbered Iter. End-Start is a
// multiple of N.
type Span struct {
	Rank       int
	Start, End des.Time
	Kind       Kind
	Iter       int
	// N is the number of iterations covered; 0 and 1 both mean one, so a
	// Span literal without it is a single iteration.
	N int
}

// Iters returns the number of iterations the span covers, at least 1.
func (s Span) Iters() int {
	if s.N < 1 {
		return 1
	}
	return s.N
}

// At returns the k-th iteration of the run (0 <= k < Iters()) as the
// single-iteration span AddSpan was given for it.
func (s Span) At(k int) Span {
	stride := (s.End - s.Start) / des.Time(s.Iters())
	start := s.Start + des.Time(k)*stride
	return Span{Rank: s.Rank, Start: start, End: start + stride, Kind: s.Kind, Iter: s.Iter + k, N: 1}
}

// MsgKind classifies a message by its role in the protocol, so the
// critical-path analyzer can attribute its transit to the right category.
type MsgKind int

const (
	// MsgData carries iterate components between neighbouring processors.
	MsgData MsgKind = iota
	// MsgState carries local convergence state to the coordinator.
	MsgState
	// MsgStop is the coordinator's global-convergence broadcast.
	MsgStop
	// MsgBarrier is barrier traffic (arrive / release).
	MsgBarrier
	// MsgReduce is allreduce traffic (contribution / result).
	MsgReduce
)

// String returns the short lower-case name used in listings and exports.
func (k MsgKind) String() string {
	switch k {
	case MsgData:
		return "data"
	case MsgState:
		return "state"
	case MsgStop:
		return "stop"
	case MsgBarrier:
		return "barrier"
	case MsgReduce:
		return "reduce"
	}
	return "msg"
}

// Msg is one delivered communication.
type Msg struct {
	From, To   int
	Sent, Recv des.Time
	Kind       MsgKind
	// Bytes is the wire size of the message (header plus payload), as
	// charged by the transport.
	Bytes int
	// Iter is the iteration / sequence number the payload belongs to
	// (data: producing iteration; state: state sequence; barrier/reduce:
	// round; stop: 0).
	Iter int
}

// WaitKind classifies a blocking wait.
type WaitKind int

const (
	// WaitBarrier is a session-entry barrier.
	WaitBarrier WaitKind = iota
	// WaitExchange is a synchronous data exchange blocked on neighbour
	// iterates.
	WaitExchange
	// WaitReduce is an allreduce blocked on the coordinator's result.
	WaitReduce
	// WaitRecovery is time parked while the local node was crashed.
	WaitRecovery
	// WaitBlockedSend is a blocking send (native backends: waiting for
	// helper send goroutines to drain).
	WaitBlockedSend
)

// String returns the short lower-case name used in listings.
func (k WaitKind) String() string {
	switch k {
	case WaitBarrier:
		return "barrier"
	case WaitExchange:
		return "exchange"
	case WaitReduce:
		return "reduce"
	case WaitRecovery:
		return "recovery"
	case WaitBlockedSend:
		return "blocked-send"
	}
	return "wait"
}

// Wait is one blocking interval of one processor, with the causal binding
// the instrumentation point knows at wake-up time: which message's arrival
// ended the wait.
type Wait struct {
	Rank       int
	Start, End des.Time
	Kind       WaitKind
	// Cause is the index into Collector.Msgs of the message whose arrival
	// ended this wait, or -1 when unknown (recovery waits, native waits).
	Cause int
}

// Collector accumulates spans, messages and waits. A nil *Collector is
// valid and records nothing, so instrumented code never needs nil checks.
type Collector struct {
	Spans []Span
	Msgs  []Msg
	Waits []Wait

	// last[r] is one plus the index in Spans of rank r's latest span (0:
	// none), the only candidate AddSpan may extend. It reflects
	// Spans[:indexed]; spans appended to Spans directly (backend.Run merges
	// its per-rank collectors that way) are indexed on the next AddSpan.
	last    []int
	indexed int
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Reset empties the collector for the next run and keeps the capacity of
// its records, so a collector reused run after run stops growing once it
// has held the largest. No-op on a nil collector.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.Spans, c.Msgs, c.Waits = c.Spans[:0], c.Msgs[:0], c.Waits[:0]
	c.last, c.indexed = c.last[:0], 0
}

// AddSpan records one iteration's activity interval: it extends the rank's
// latest span when the interval continues that run (see the package
// comment) and appends a new span otherwise. No-op on a nil collector or an
// empty interval.
func (c *Collector) AddSpan(rank int, start, end des.Time, kind Kind, iter int) {
	if c == nil || end <= start {
		return
	}
	if s := c.latest(rank); s != nil && s.Rank == rank && s.Kind == kind && s.End == start {
		if n := s.Iters(); s.Iter+n == iter && (s.End-s.Start)/des.Time(n) == end-start {
			s.End, s.N = end, n+1
			return
		}
	}
	c.Spans = append(c.Spans, Span{Rank: rank, Start: start, End: end, Kind: kind, Iter: iter, N: 1})
	c.index()
}

// AddRun records n back-to-back iterations of length stride from start,
// numbered iter … iter+n-1 — what n AddSpan calls would record, in one.
func (c *Collector) AddRun(rank int, start, stride des.Time, kind Kind, iter, n int) {
	if c == nil || n <= 0 || stride <= 0 {
		return
	}
	c.AddSpan(rank, start, start+stride, kind, iter)
	if n > 1 {
		// The latest span now ends with the first iteration, at this stride.
		s := c.latest(rank)
		s.End += des.Time(n-1) * stride
		s.N = s.Iters() + n - 1
	}
}

// latest returns rank's most recently recorded span, or nil.
func (c *Collector) latest(rank int) *Span {
	if c.indexed != len(c.Spans) {
		c.index()
	}
	if rank < 0 || rank >= len(c.last) || c.last[rank] == 0 {
		return nil
	}
	return &c.Spans[c.last[rank]-1]
}

// index brings last up to date with Spans. Spans of negative rank are not
// indexed and so never extended.
func (c *Collector) index() {
	if c.indexed > len(c.Spans) { // Spans was cut back: start over
		c.indexed = 0
		clear(c.last)
	}
	for i := c.indexed; i < len(c.Spans); i++ {
		r := c.Spans[i].Rank
		if r < 0 {
			continue
		}
		for len(c.last) <= r {
			c.last = append(c.last, 0)
		}
		c.last[r] = i + 1
	}
	c.indexed = len(c.Spans)
}

// Iterations returns the number of compute iterations recorded: the sum of
// Iters over the compute spans, where len(Spans) counts runs.
func (c *Collector) Iterations() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.Spans {
		if s.Kind == Compute {
			n += s.Iters()
		}
	}
	return n
}

// AddMsg records a delivered message and returns its index in Msgs, so the
// receiver can bind it as a wait cause. Returns -1 on a nil collector.
func (c *Collector) AddMsg(m Msg) int {
	if c == nil {
		return -1
	}
	c.Msgs = append(c.Msgs, m)
	return len(c.Msgs) - 1
}

// AddWait records a blocking interval. No-op on a nil collector or an
// empty interval (a wait that was satisfied without blocking).
func (c *Collector) AddWait(rank int, start, end des.Time, kind WaitKind, cause int) {
	if c == nil || end <= start {
		return
	}
	c.Waits = append(c.Waits, Wait{Rank: rank, Start: start, End: end, Kind: kind, Cause: cause})
}

// Horizon returns the last span end time.
func (c *Collector) Horizon() des.Time {
	var h des.Time
	for _, s := range c.Spans {
		if s.End > h {
			h = s.End
		}
	}
	return h
}

// ranks returns the highest rank seen plus one.
func (c *Collector) ranks() int {
	n := 0
	for _, s := range c.Spans {
		if s.Rank+1 > n {
			n = s.Rank + 1
		}
	}
	for _, m := range c.Msgs {
		if m.From+1 > n {
			n = m.From + 1
		}
		if m.To+1 > n {
			n = m.To + 1
		}
	}
	return n
}

// BusyIdle returns the total compute and idle time recorded for a rank.
func (c *Collector) BusyIdle(rank int) (busy, idle des.Time) {
	for _, s := range c.Spans {
		if s.Rank != rank {
			continue
		}
		if s.Kind == Compute {
			busy += s.End - s.Start
		} else {
			idle += s.End - s.Start
		}
	}
	return
}

// IdleFraction returns idle/(busy+idle) for a rank, the quantitative form
// of Figures 1 vs 2.
func (c *Collector) IdleFraction(rank int) float64 {
	busy, idle := c.BusyIdle(rank)
	total := busy + idle
	if total == 0 {
		return 0
	}
	return float64(idle) / float64(total)
}

// MeanIdleFraction averages IdleFraction over all ranks.
func (c *Collector) MeanIdleFraction() float64 {
	n := c.ranks()
	if n == 0 {
		return 0
	}
	var sum float64
	for r := 0; r < n; r++ {
		sum += c.IdleFraction(r)
	}
	return sum / float64(n)
}

// Gantt renders the trace as an ASCII chart of the given width: one row per
// processor, '█' for compute, '·' for idle, ' ' for not yet started /
// finished. Messages are summarised below the chart.
func (c *Collector) Gantt(width int) string {
	if c == nil || len(c.Spans) == 0 {
		return "(empty trace)\n"
	}
	if width < 10 {
		width = 10
	}
	horizon := c.Horizon()
	if horizon == 0 {
		return "(empty trace)\n"
	}
	n := c.ranks()
	scale := func(t des.Time) int {
		col := int(int64(t) * int64(width) / int64(horizon))
		if col >= width {
			col = width - 1
		}
		return col
	}
	rows := make([][]byte, n)
	for r := range rows {
		rows[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range c.Spans {
		ch := byte('#')
		if s.Kind == Idle {
			ch = '.'
		}
		for col := scale(s.Start); col <= scale(s.End-1) && col < width; col++ {
			rows[s.Rank][col] = ch
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 .. %v   ('#' compute, '.' idle)\n", horizon)
	for r := 0; r < n; r++ {
		busy, idle := c.BusyIdle(r)
		fmt.Fprintf(&b, "P%-2d |%s| busy %v idle %v\n", r, rows[r], busy.Round(des.Time(1e6)), idle.Round(des.Time(1e6)))
	}
	fmt.Fprintf(&b, "%d messages delivered\n", len(c.Msgs))
	return b.String()
}
