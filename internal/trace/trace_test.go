package trace

import (
	"strings"
	"testing"
	"time"

	"aiac/internal/des"
)

func ms(n int) des.Time { return des.Time(n) * time.Millisecond }

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.AddSpan(0, 0, ms(1), Compute, 0)
	if idx := c.AddMsg(Msg{From: 0, To: 1, Sent: 0, Recv: ms(1)}); idx != -1 {
		t.Fatalf("nil AddMsg index = %d, want -1", idx)
	}
	c.AddWait(0, 0, ms(1), WaitBarrier, -1)
	if got := c.Gantt(40); !strings.Contains(got, "empty") {
		t.Fatalf("nil gantt = %q", got)
	}
}

func TestBusyIdleAccounting(t *testing.T) {
	c := New()
	c.AddSpan(0, 0, ms(10), Compute, 0)
	c.AddSpan(0, ms(10), ms(15), Idle, 0)
	c.AddSpan(0, ms(15), ms(25), Compute, 1)
	c.AddSpan(1, 0, ms(25), Compute, 0)
	busy, idle := c.BusyIdle(0)
	if busy != ms(20) || idle != ms(5) {
		t.Fatalf("busy=%v idle=%v", busy, idle)
	}
	if f := c.IdleFraction(0); f < 0.19 || f > 0.21 {
		t.Fatalf("idle fraction = %v, want 0.2", f)
	}
	if f := c.IdleFraction(1); f != 0 {
		t.Fatalf("rank 1 idle fraction = %v", f)
	}
	mean := c.MeanIdleFraction()
	if mean < 0.09 || mean > 0.11 {
		t.Fatalf("mean idle = %v, want 0.1", mean)
	}
}

// TestIdleFractionMatchesBusyIdle pins IdleFraction to the exact
// idle/(busy+idle) derivation from one BusyIdle read — the invariant
// aiacbench -metrics KEY relies on when it emits the fraction and the absolute
// busy/idle seconds from a single call per rank.
func TestIdleFractionMatchesBusyIdle(t *testing.T) {
	c := New()
	c.AddSpan(0, 0, ms(7), Compute, 0)
	c.AddSpan(0, ms(7), ms(10), Idle, 0)
	c.AddSpan(0, ms(10), ms(31), Compute, 1)
	c.AddSpan(1, 0, ms(13), Idle, 0)
	c.AddSpan(2, 0, ms(5), Compute, 0)
	for r := 0; r < 4; r++ { // rank 3 has no spans at all
		busy, idle := c.BusyIdle(r)
		want := 0.0
		if total := busy + idle; total > 0 {
			want = float64(idle) / float64(total)
		}
		if got := c.IdleFraction(r); got != want {
			t.Errorf("rank %d: IdleFraction = %v, BusyIdle-derived = %v", r, got, want)
		}
	}
}

func TestEmptySpanIgnored(t *testing.T) {
	c := New()
	c.AddSpan(0, ms(5), ms(5), Compute, 0)
	c.AddSpan(0, ms(7), ms(3), Compute, 0)
	if len(c.Spans) != 0 {
		t.Fatalf("empty spans recorded: %v", c.Spans)
	}
}

func TestHorizon(t *testing.T) {
	c := New()
	c.AddSpan(0, 0, ms(10), Compute, 0)
	c.AddSpan(1, ms(5), ms(30), Compute, 0)
	if c.Horizon() != ms(30) {
		t.Fatalf("horizon = %v", c.Horizon())
	}
}

func TestGanttRendersRows(t *testing.T) {
	c := New()
	c.AddSpan(0, 0, ms(50), Compute, 0)
	c.AddSpan(0, ms(50), ms(100), Idle, 0)
	c.AddSpan(1, 0, ms(100), Compute, 0)
	c.AddMsg(Msg{From: 0, To: 1, Sent: ms(10), Recv: ms(20), Kind: MsgData, Bytes: 64, Iter: 1})
	g := c.Gantt(40)
	if !strings.Contains(g, "P0 ") || !strings.Contains(g, "P1 ") {
		t.Fatalf("gantt missing rows:\n%s", g)
	}
	if !strings.Contains(g, "#") || !strings.Contains(g, ".") {
		t.Fatalf("gantt missing glyphs:\n%s", g)
	}
	if !strings.Contains(g, "1 messages") {
		t.Fatalf("gantt missing message count:\n%s", g)
	}
	// Rank 0's row must contain idle dots, rank 1's must not.
	lines := strings.Split(g, "\n")
	var p0, p1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "P0 ") {
			p0 = l
		}
		if strings.HasPrefix(l, "P1 ") {
			p1 = l
		}
	}
	if !strings.Contains(p0, ".") {
		t.Fatalf("P0 row has no idle: %s", p0)
	}
	if strings.Contains(p1, ".") {
		t.Fatalf("P1 row shows idle: %s", p1)
	}
}

func TestWaitAndMsgRecording(t *testing.T) {
	c := New()
	i0 := c.AddMsg(Msg{From: 0, To: 1, Sent: 0, Recv: ms(2), Kind: MsgBarrier})
	i1 := c.AddMsg(Msg{From: 1, To: 0, Sent: ms(1), Recv: ms(3), Kind: MsgData, Bytes: 24, Iter: 7})
	if i0 != 0 || i1 != 1 {
		t.Fatalf("AddMsg indices = %d, %d", i0, i1)
	}
	c.AddWait(1, 0, ms(2), WaitBarrier, i0)
	c.AddWait(1, ms(2), ms(2), WaitExchange, -1) // empty: a wait that never blocked
	if len(c.Waits) != 1 {
		t.Fatalf("waits = %+v, want the empty one skipped", c.Waits)
	}
	w := c.Waits[0]
	if w.Rank != 1 || w.Kind != WaitBarrier || w.Cause != i0 || w.End != ms(2) {
		t.Fatalf("wait = %+v", w)
	}
	if MsgData.String() != "data" || WaitBlockedSend.String() != "blocked-send" {
		t.Fatalf("kind names: %q %q", MsgData, WaitBlockedSend)
	}
}

func TestGanttTinyWidthClamped(t *testing.T) {
	c := New()
	c.AddSpan(0, 0, ms(10), Compute, 0)
	if g := c.Gantt(1); g == "" {
		t.Fatal("empty gantt")
	}
}

// A reset collector records the next run as a new one records it — no
// span of the last run is extended — in the storage it already holds.
func TestResetReusesStorage(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		c.AddSpan(1, ms(i), ms(i+1), Compute, i)
		c.AddMsg(Msg{From: 0, To: 1, Sent: ms(i), Recv: ms(i + 1)})
		c.AddWait(0, ms(i), ms(i+1), WaitExchange, i)
	}
	spans, msgs, waits := cap(c.Spans), cap(c.Msgs), cap(c.Waits)
	c.Reset()
	if len(c.Spans)+len(c.Msgs)+len(c.Waits) != 0 {
		t.Fatalf("%d spans, %d messages, %d waits after Reset", len(c.Spans), len(c.Msgs), len(c.Waits))
	}
	// This span continues the last run's rank-1 run; it must start a new one.
	c.AddSpan(1, ms(100), ms(101), Compute, 100)
	c.AddSpan(1, ms(101), ms(102), Compute, 101)
	if want := []Span{{Rank: 1, Start: ms(100), End: ms(102), Kind: Compute, Iter: 100, N: 2}}; len(c.Spans) != 1 || c.Spans[0] != want[0] {
		t.Fatalf("spans after Reset: %+v; want %+v", c.Spans, want)
	}
	if idx := c.AddMsg(Msg{From: 1, To: 0}); idx != 0 {
		t.Fatalf("the first message after Reset has index %d; want 0", idx)
	}
	if cap(c.Spans) != spans || cap(c.Msgs) != msgs || cap(c.Waits) != waits {
		t.Fatalf("capacities %d, %d, %d after Reset; want %d, %d, %d", cap(c.Spans), cap(c.Msgs), cap(c.Waits), spans, msgs, waits)
	}
	(*Collector)(nil).Reset()
}
