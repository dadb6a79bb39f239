package critpath

// Hand-built event graphs with known critical paths: the analyzer must
// recover the expected attribution exactly, and on every graph the
// category sums must partition the total (the invariant the CI
// attribution-smoke leg gates on real sweeps).

import (
	"strings"
	"testing"
	"time"

	"aiac/internal/des"
	"aiac/internal/trace"
)

func ms(n int) des.Time { return des.Time(n) * time.Millisecond }

// checkInvariants asserts non-negativity and sums-to-total.
func checkInvariants(t *testing.T, a *Attribution) {
	t.Helper()
	var sum des.Time
	for c := Category(0); c < NumCategories; c++ {
		if a.ByCat[c] < 0 {
			t.Fatalf("negative attribution for %s: %v", c, a.ByCat[c])
		}
		sum += a.ByCat[c]
	}
	if sum != a.Total {
		t.Fatalf("categories sum to %v, total is %v", sum, a.Total)
	}
	for _, s := range a.Segs {
		var segSum des.Time
		for c := Category(0); c < NumCategories; c++ {
			segSum += s.ByCat[c]
		}
		if segSum != s.End-s.Start {
			t.Fatalf("segment %+v: categories sum to %v, span is %v", s, segSum, s.End-s.Start)
		}
	}
}

// TestPureCompute: one rank computing start to finish. Everything is
// compute.
func TestPureCompute(t *testing.T) {
	c := trace.New()
	c.AddSpan(0, 0, ms(10), trace.Compute, 0)
	c.AddSpan(0, ms(10), ms(20), trace.Compute, 1)
	a, ok := Analyze(c, ms(20))
	if !ok {
		t.Fatal("analyze failed")
	}
	checkInvariants(t, a)
	if a.ByCat[CatCompute] != ms(20) {
		t.Fatalf("compute = %v, want %v (attribution %+v)", a.ByCat[CatCompute], ms(20), a.ByCat)
	}
	if len(a.Segs) != 1 || !a.Segs[0].HasIter || a.Segs[0].FirstIter != 0 || a.Segs[0].LastIter != 1 {
		t.Fatalf("segs = %+v", a.Segs)
	}
}

// TestBarrierDominated: rank 1 computes 2ms then waits 16ms in a barrier
// whose release is sent by rank 0 at t=17 and arrives at t=18; rank 0
// computed until 17. The path must cross the release edge to rank 0 and
// the wait (including the release's flight) must be sync-wait.
func TestBarrierDominated(t *testing.T) {
	c := trace.New()
	c.AddSpan(0, 0, ms(17), trace.Compute, 0)
	c.AddSpan(1, 0, ms(2), trace.Compute, 0)
	rel := c.AddMsg(trace.Msg{From: 0, To: 1, Sent: ms(17), Recv: ms(18), Kind: trace.MsgBarrier, Bytes: 16})
	c.AddWait(1, ms(2), ms(18), trace.WaitBarrier, rel)
	c.AddSpan(1, ms(18), ms(20), trace.Compute, 1)

	a, ok := Analyze(c, ms(20))
	if !ok {
		t.Fatal("analyze failed")
	}
	checkInvariants(t, a)
	// Path: P1 compute (18..20] = 2ms, release edge (17..18] = sync-wait,
	// P0 compute (0..17].
	if got := a.ByCat[CatSyncWait]; got != ms(1) {
		t.Fatalf("sync-wait = %v, want %v (%+v)", got, ms(1), a.ByCat)
	}
	if got := a.ByCat[CatCompute]; got != ms(19) {
		t.Fatalf("compute = %v, want %v (%+v)", got, ms(19), a.ByCat)
	}
	if len(a.Segs) != 2 || a.Segs[0].Rank != 0 || a.Segs[1].Rank != 1 || a.Segs[1].Via == nil {
		t.Fatalf("segs = %+v", a.Segs)
	}
	if a.Segs[1].Via.Kind != trace.MsgBarrier || a.Segs[1].Via.From != 0 {
		t.Fatalf("via = %+v", a.Segs[1].Via)
	}
}

// TestSlowLinkDominated: a synchronous exchange blocked on a slow data
// message. The receiver computes 1ms, waits 1..30 for data sent by rank 1
// at t=2 (28ms of flight): the whole wait, flight included, is sync-wait —
// the category split that explains sync/adsl cells.
func TestSlowLinkDominated(t *testing.T) {
	c := trace.New()
	c.AddSpan(0, 0, ms(1), trace.Compute, 0)
	c.AddSpan(1, 0, ms(2), trace.Compute, 0)
	data := c.AddMsg(trace.Msg{From: 1, To: 0, Sent: ms(2), Recv: ms(30), Kind: trace.MsgData, Bytes: 4096, Iter: 0})
	c.AddWait(0, ms(1), ms(30), trace.WaitExchange, data)
	c.AddSpan(0, ms(30), ms(32), trace.Compute, 1)

	a, ok := Analyze(c, ms(32))
	if !ok {
		t.Fatal("analyze failed")
	}
	checkInvariants(t, a)
	// Path: P0 (30..32] compute, exchange edge (2..30] sync-wait, P1
	// (0..2] compute.
	if got := a.ByCat[CatSyncWait]; got != ms(28) {
		t.Fatalf("sync-wait = %v, want %v (%+v)", got, ms(28), a.ByCat)
	}
	if got := a.ByCat[CatCompute]; got != ms(4) {
		t.Fatalf("compute = %v, want %v (%+v)", got, ms(4), a.ByCat)
	}
	if a.Share(CatSyncWait) < 0.4 {
		t.Fatalf("sync-wait share = %v, want > 0.4", a.Share(CatSyncWait))
	}
}

// TestRestartMidPath: a crash parks the rank mid-run (recovery wait, no
// cause); the downtime must land in protocol and the walk must continue on
// the same rank.
func TestRestartMidPath(t *testing.T) {
	c := trace.New()
	c.AddSpan(0, 0, ms(5), trace.Compute, 0)
	c.AddWait(0, ms(5), ms(15), trace.WaitRecovery, -1)
	c.AddSpan(0, ms(15), ms(25), trace.Compute, 1)

	a, ok := Analyze(c, ms(25))
	if !ok {
		t.Fatal("analyze failed")
	}
	checkInvariants(t, a)
	if got := a.ByCat[CatProtocol]; got != ms(10) {
		t.Fatalf("protocol = %v, want %v (%+v)", got, ms(10), a.ByCat)
	}
	if got := a.ByCat[CatCompute]; got != ms(15) {
		t.Fatalf("compute = %v, want %v (%+v)", got, ms(15), a.ByCat)
	}
	if len(a.Segs) != 1 {
		t.Fatalf("recovery must not split the rank visit: %+v", a.Segs)
	}
}

// TestAsyncArrivalEdge: an idle-free async chain where the anchor rank's
// first compute span begins when a data message lands in a gap — the walk
// must cross that edge as transit (not sync-wait) and continue on the
// sender.
func TestAsyncArrivalEdge(t *testing.T) {
	c := trace.New()
	c.AddSpan(1, 0, ms(10), trace.Compute, 0)
	data := c.AddMsg(trace.Msg{From: 1, To: 0, Sent: ms(10), Recv: ms(12), Kind: trace.MsgData, Bytes: 512, Iter: 0})
	_ = data
	c.AddSpan(0, ms(12), ms(20), trace.Compute, 0)

	a, ok := Analyze(c, ms(20))
	if !ok {
		t.Fatal("analyze failed")
	}
	checkInvariants(t, a)
	if got := a.ByCat[CatTransit]; got != ms(2) {
		t.Fatalf("transit = %v, want %v (%+v)", got, ms(2), a.ByCat)
	}
	if got := a.ByCat[CatCompute]; got != ms(18) {
		t.Fatalf("compute = %v, want %v (%+v)", got, ms(18), a.ByCat)
	}
}

// TestTeardownTail: reported total past the last recorded event is
// teardown, attributed to protocol.
func TestTeardownTail(t *testing.T) {
	c := trace.New()
	c.AddSpan(0, 0, ms(10), trace.Compute, 3)
	a, ok := Analyze(c, ms(12))
	if !ok {
		t.Fatal("analyze failed")
	}
	checkInvariants(t, a)
	if got := a.ByCat[CatProtocol]; got != ms(2) {
		t.Fatalf("protocol tail = %v, want %v (%+v)", got, ms(2), a.ByCat)
	}
}

// TestBlockedSendGap: a gap between two recorded activities on the same
// rank with no arrival in between is send-side packing time.
func TestBlockedSendGap(t *testing.T) {
	c := trace.New()
	c.AddSpan(0, 0, ms(10), trace.Compute, 0)
	c.AddSpan(0, ms(13), ms(20), trace.Compute, 1)
	a, ok := Analyze(c, ms(20))
	if !ok {
		t.Fatal("analyze failed")
	}
	checkInvariants(t, a)
	if got := a.ByCat[CatBlockedSend]; got != ms(3) {
		t.Fatalf("blocked-send = %v, want %v (%+v)", got, ms(3), a.ByCat)
	}
}

// TestSchedulerBroadcastChain: the rank-0 coordinator pattern — the last
// barrier arrival triggers the release broadcast at the same instant, in
// scheduler context. The walk must hop arrival→send at equal timestamps
// and terminate.
func TestSchedulerBroadcastChain(t *testing.T) {
	c := trace.New()
	// Rank 1 computes, sends its arrive at t=5 (flight 1ms), rank 0
	// receives it at t=6 and broadcasts the release at t=6; rank 1's
	// barrier wait ends when the release lands at t=7.
	c.AddSpan(1, 0, ms(5), trace.Compute, 0)
	c.AddMsg(trace.Msg{From: 1, To: 0, Sent: ms(5), Recv: ms(6), Kind: trace.MsgBarrier, Bytes: 16})
	rel := c.AddMsg(trace.Msg{From: 0, To: 1, Sent: ms(6), Recv: ms(7), Kind: trace.MsgBarrier, Bytes: 16})
	c.AddWait(1, ms(5), ms(7), trace.WaitBarrier, rel)
	c.AddSpan(1, ms(7), ms(9), trace.Compute, 1)

	a, ok := Analyze(c, ms(9))
	if !ok {
		t.Fatal("analyze failed")
	}
	checkInvariants(t, a)
	// (6..9] on rank 1 (compute 2ms + release flight 1ms), (5..6] arrive
	// flight via rank 0, (0..5] compute on rank 1.
	if got := a.ByCat[CatSyncWait]; got != ms(2) {
		t.Fatalf("sync-wait = %v, want %v (%+v)", got, ms(2), a.ByCat)
	}
	if got := a.ByCat[CatCompute]; got != ms(7) {
		t.Fatalf("compute = %v, want %v (%+v)", got, ms(7), a.ByCat)
	}
	if len(a.Segs) != 3 {
		t.Fatalf("segs = %+v", a.Segs)
	}
}

// TestDegenerate: analyses that must refuse.
func TestDegenerate(t *testing.T) {
	if _, ok := Analyze(nil, ms(1)); ok {
		t.Fatal("nil collector analyzed")
	}
	if _, ok := Analyze(trace.New(), ms(1)); ok {
		t.Fatal("empty trace analyzed")
	}
	c := trace.New()
	c.AddSpan(0, 0, ms(1), trace.Idle, 0)
	if _, ok := Analyze(c, ms(1)); ok {
		t.Fatal("idle-only trace analyzed")
	}
	c2 := trace.New()
	c2.AddSpan(0, 0, ms(1), trace.Compute, 0)
	if _, ok := Analyze(c2, 0); ok {
		t.Fatal("zero total analyzed")
	}
}

// TestTotalFromSeconds round-trips exact nanosecond counts.
func TestTotalFromSeconds(t *testing.T) {
	for _, ns := range []des.Time{1, 999, ms(1), ms(224_000), des.Time(144_400_123_456)} {
		if got := TotalFromSeconds(ns.Seconds()); got != ns {
			t.Fatalf("round trip %d -> %d", ns, got)
		}
	}
}

// TestListingAndExplainRender smoke-checks the text renderers.
func TestListingAndExplainRender(t *testing.T) {
	c := trace.New()
	c.AddSpan(0, 0, ms(17), trace.Compute, 0)
	c.AddSpan(1, 0, ms(2), trace.Compute, 0)
	rel := c.AddMsg(trace.Msg{From: 0, To: 1, Sent: ms(17), Recv: ms(18), Kind: trace.MsgBarrier, Bytes: 16})
	c.AddWait(1, ms(2), ms(18), trace.WaitBarrier, rel)
	c.AddSpan(1, ms(18), ms(20), trace.Compute, 1)
	a, ok := Analyze(c, ms(20))
	if !ok {
		t.Fatal("analyze failed")
	}
	l := a.Listing(10)
	if l == "" || !strings.Contains(l, "P0") || !strings.Contains(l, "barrier") {
		t.Fatalf("listing:\n%s", l)
	}
	e := Explain("A", a, "B", a)
	if !strings.Contains(e, "compute") || !strings.Contains(e, "total") {
		t.Fatalf("explain:\n%s", e)
	}
}

// TestOutOfOrderRecording: a native-style trace — ranks record
// concurrently, so spans, waits and messages reach the collector out of
// time order — must attribute exactly as the same history recorded in
// order. buildGraph only merges a rank whose spans and whose waits were
// each recorded in time order (every simulated rank); this keeps the sort
// path, and the equivalence of the two, under test.
func TestOutOfOrderRecording(t *testing.T) {
	// Three ranks, four lockstep rounds: compute, then wait for the
	// slowest peer's data, which rank 2 sends late every round.
	type span struct {
		rank       int
		start, end des.Time
		iter       int
	}
	type wait struct {
		rank       int
		start, end des.Time
		cause      int
	}
	var spans []span
	var waits []wait
	var msgs []trace.Msg
	for round := 0; round < 4; round++ {
		base := ms(20 * round)
		for r := 0; r < 3; r++ {
			work := ms(2 + 5*r)
			spans = append(spans, span{r, base, base + work, round})
			if r < 2 {
				msgs = append(msgs, trace.Msg{From: 2, To: r, Sent: base + ms(12), Recv: base + ms(20), Kind: trace.MsgData, Bytes: 64})
				waits = append(waits, wait{r, base + work, base + ms(20), len(msgs) - 1})
			} else {
				msgs = append(msgs, trace.Msg{From: 0, To: 2, Sent: base + ms(2), Recv: base + ms(3), Kind: trace.MsgData, Bytes: 64})
				waits = append(waits, wait{2, base + work, base + ms(20), -1})
			}
		}
	}
	record := func(reverse bool) *trace.Collector {
		c := trace.New()
		pick := func(i, n int) int {
			if reverse {
				return n - 1 - i
			}
			return i
		}
		// Msg indices are wait causes, so the message order is part of
		// the history's identity; reverse it and remap the causes.
		remap := make([]int, len(msgs))
		for i := range msgs {
			j := pick(i, len(msgs))
			remap[j] = c.AddMsg(msgs[j])
		}
		for i := range spans {
			s := spans[pick(i, len(spans))]
			c.AddSpan(s.rank, s.start, s.end, trace.Compute, s.iter)
		}
		for i := range waits {
			w := waits[pick(i, len(waits))]
			cause := w.cause
			if cause >= 0 {
				cause = remap[cause]
			}
			c.AddWait(w.rank, w.start, w.end, trace.WaitExchange, cause)
		}
		return c
	}

	inOrder, shuffled := record(false), record(true)
	g := buildGraph(shuffled)
	for r, as := range g.acts {
		for i := 1; i < len(as); i++ {
			if as[i].start < as[i-1].start {
				t.Fatalf("rank %d: activity %d starts before its predecessor", r, i)
			}
		}
		idxs := g.arr[r]
		if cap(as) != len(as) || cap(idxs) != len(idxs) {
			t.Errorf("rank %d: slices not sized exactly (acts %d/%d, arrivals %d/%d)", r, len(as), cap(as), len(idxs), cap(idxs))
		}
		for i := 1; i < len(idxs); i++ {
			if g.msgs[idxs[i]].Recv < g.msgs[idxs[i-1]].Recv {
				t.Fatalf("rank %d: arrival %d received before its predecessor", r, i)
			}
		}
	}

	want, ok := Analyze(inOrder, ms(80))
	if !ok {
		t.Fatal("analyze failed on the in-order trace")
	}
	got, ok := Analyze(shuffled, ms(80))
	if !ok {
		t.Fatal("analyze failed on the out-of-order trace")
	}
	checkInvariants(t, got)
	if got.Total != want.Total || got.ByCat != want.ByCat {
		t.Fatalf("out-of-order attribution %+v (total %v), in-order %+v (total %v)", got.ByCat, got.Total, want.ByCat, want.Total)
	}
	if got.ByCat[CatSyncWait] == 0 || got.ByCat[CatCompute] == 0 {
		t.Fatalf("degenerate attribution %+v", got.ByCat)
	}
}
