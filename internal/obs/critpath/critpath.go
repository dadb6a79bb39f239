// Package critpath extracts the causal critical path of a traced run and
// attributes every nanosecond of the end-to-end time to one activity
// category. It answers, per cell, the question the raw timings of the
// paper's tables leave open: *why* does the asynchronous scheme beat the
// synchronous one behind a slow link — which share of the wall clock was
// compute, which was a blocking exchange, which was protocol overhead.
//
// The event graph is the trace.Collector the engines and middleware
// already record: compute runs (trace.Span: back-to-back iterations of equal
// length, consumed in one step) chain each rank's timeline, every Msg is a
// cross-rank edge from its send point to its receive point, and every Wait
// carries the causal binding the instrumentation knew at wake-up time —
// the message whose arrival opened the gate. The analyzer walks this graph
// backward from the end of the run, always following the binding
// constraint: through a wait to the message that ended it, across the
// message to its sender, down the sender's compute chain, and so on to the
// start of the run. Because every step accounts the interval between the
// current and the next frontier time exactly once, the per-category sums
// partition (0, total] and add up to the reported time by construction.
//
// Categories:
//
//   - compute: time on the path spent iterating (relaxation / Newton work);
//   - network-transit: a data message's flight time on the path, when the
//     receiver was not blocked on it (asynchronous arrivals);
//   - sync-wait: time a rank sat in a blocking collective — barrier,
//     synchronous exchange, allreduce — *including* the flight time of the
//     message that released it (behind an ADSL uplink, that is where the
//     synchronous scheme loses the race);
//   - protocol: confirmation / convergence-control traffic (state, stop),
//     crash-recovery downtime, and unattributed scheduling gaps;
//   - blocked-send: send-side packing and blocking-send time between
//     recorded activities.
package critpath

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"aiac/internal/des"
	"aiac/internal/trace"
)

// Category classifies attributed time.
type Category int

const (
	CatCompute Category = iota
	CatTransit
	CatSyncWait
	CatProtocol
	CatBlockedSend
	// NumCategories bounds the per-category arrays.
	NumCategories
)

// String returns the name used in tables, metrics labels and listings.
func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatTransit:
		return "transit"
	case CatSyncWait:
		return "sync-wait"
	case CatProtocol:
		return "protocol"
	case CatBlockedSend:
		return "blocked-send"
	}
	return "other"
}

// Hop describes the message edge through which the critical path entered a
// segment: the segment's first event is the arrival of this message.
type Hop struct {
	From       int
	Kind       trace.MsgKind
	Bytes      int
	Sent, Recv des.Time
}

// Seg is one rank-visit of the critical path, in forward time order:
// the path runs on Seg.Rank from Start to End, then crosses to the next
// segment's rank (whose Via records the connecting message, if any).
type Seg struct {
	Rank       int
	Start, End des.Time
	// ByCat decomposes End-Start.
	ByCat [NumCategories]des.Time
	// FirstIter/LastIter bound the compute iterations covered (HasIter).
	FirstIter, LastIter int
	HasIter             bool
	// Via is the message whose arrival starts this segment (nil for the
	// first segment and for same-rank continuations after a cause-less
	// wait).
	Via *Hop
}

// Attribution is the result of a critical-path walk.
type Attribution struct {
	// Total is the attributed end-to-end time; the ByCat entries sum to
	// it exactly.
	Total des.Time
	ByCat [NumCategories]des.Time
	// Segs is the path as rank-visits in forward time order.
	Segs []Seg
}

// Seconds returns a category's attributed time in seconds.
func (a *Attribution) Seconds(c Category) float64 {
	if a == nil {
		return 0
	}
	return a.ByCat[c].Seconds()
}

// Share returns a category's fraction of the total (0 when empty).
func (a *Attribution) Share(c Category) float64 {
	if a == nil {
		return 0
	}
	if a.Total <= 0 {
		return 0
	}
	return float64(a.ByCat[c]) / float64(a.Total)
}

// TotalFromSeconds converts a reported time_sec back to the exact
// virtual-time total: nanosecond counts below 2^53 survive the float64
// round trip, so the total recovered from a Result is the engine's own.
func TotalFromSeconds(sec float64) des.Time {
	return des.Time(math.Round(sec * 1e9))
}

// catForWait maps a wait kind onto the taxonomy.
func catForWait(k trace.WaitKind) Category {
	switch k {
	case trace.WaitBarrier, trace.WaitExchange, trace.WaitReduce:
		return CatSyncWait
	case trace.WaitRecovery:
		return CatProtocol
	case trace.WaitBlockedSend:
		return CatBlockedSend
	}
	return CatProtocol
}

// catForMsg maps a message kind onto the taxonomy, for edges the receiver
// was not blocked on.
func catForMsg(k trace.MsgKind) Category {
	switch k {
	case trace.MsgData:
		return CatTransit
	case trace.MsgBarrier, trace.MsgReduce:
		return CatSyncWait
	}
	return CatProtocol
}

// act is one timeline activity of one rank: a compute run or a wait.
type act struct {
	start, end des.Time
	compute    bool
	iter       int            // compute: first iteration of the run
	stride     des.Time       // compute: length of each iteration
	wkind      trace.WaitKind // wait: kind
	cause      int            // wait: Msgs index that ended it, -1 unknown
}

// graph is the indexed event graph of one trace.
type graph struct {
	msgs []trace.Msg
	// acts[r] holds rank r's activities sorted by start time;
	// maxEnd[r][i] is the running maximum of acts[r][:i+1] end times.
	acts   map[int][]act
	maxEnd map[int][]des.Time
	// arr[r] holds indices into msgs of rank r's arrivals sorted by Recv;
	// cursor[r] is the walk's per-rank frontier into arr[r] (the walk's
	// time is non-increasing, so cursors only move down).
	arr    map[int][]int
	cursor map[int]int
	used   []bool
	// hasCompute: the trace holds a compute span. anchor is the rank whose
	// recorded activity (span or wait) ends last, at lastEnd; the lower
	// rank on a tie.
	hasCompute bool
	anchor     int
	lastEnd    des.Time
}

func buildGraph(c *trace.Collector) *graph {
	g := &graph{
		msgs:    c.Msgs,
		acts:    make(map[int][]act),
		maxEnd:  make(map[int][]des.Time),
		arr:     make(map[int][]int),
		cursor:  make(map[int]int),
		used:    make([]bool, len(c.Msgs)),
		lastEnd: -1,
	}
	ends := func(rank int, end des.Time) {
		if end > g.lastEnd || (end == g.lastEnd && rank < g.anchor) {
			g.anchor, g.lastEnd = rank, end
		}
	}
	// One counting pass sizes every rank's slices exactly.
	type rankBuild struct {
		nSpans, nWaits, nArr int
		acts                 []act
		arr                  []int
	}
	per := make(map[int]*rankBuild)
	of := func(r int) *rankBuild {
		b := per[r]
		if b == nil {
			b = &rankBuild{}
			per[r] = b
		}
		return b
	}
	for i := range c.Spans {
		s := &c.Spans[i]
		ends(s.Rank, s.End)
		// Idle spans are the coarse engine-level view of the same
		// intervals the Waits cover precisely; using both would
		// double-book.
		if s.Kind == trace.Compute {
			of(s.Rank).nSpans++
			g.hasCompute = true
		}
	}
	for i := range c.Waits {
		of(c.Waits[i].Rank).nWaits++
		ends(c.Waits[i].Rank, c.Waits[i].End)
	}
	for i := range c.Msgs {
		of(c.Msgs[i].To).nArr++
	}
	//lint:unordered — keyed by rank; allocates each rank's slices, order-free.
	for _, b := range per {
		b.acts = make([]act, 0, b.nSpans+b.nWaits)
		b.arr = make([]int, 0, b.nArr)
	}
	for _, s := range c.Spans {
		if s.Kind == trace.Compute {
			b := per[s.Rank]
			b.acts = append(b.acts, act{start: s.Start, end: s.End, compute: true, iter: s.Iter,
				stride: (s.End - s.Start) / des.Time(s.Iters())})
		}
	}
	for _, w := range c.Waits {
		b := per[w.Rank]
		b.acts = append(b.acts, act{start: w.Start, end: w.End, wkind: w.Kind, cause: w.Cause})
	}
	for i, m := range c.Msgs {
		b := per[m.To]
		b.arr = append(b.arr, i)
	}
	//lint:unordered — keyed by rank; each rank's slices are ordered in place and later reads index by rank.
	for r, b := range per {
		if as := b.acts; len(as) > 0 {
			// Timeline order; spans went in ahead of waits, and stay
			// ahead on a tie.
			sort.SliceStable(as, func(i, j int) bool {
				if as[i].start != as[j].start {
					return as[i].start < as[j].start
				}
				return as[i].end < as[j].end
			})
			me := make([]des.Time, len(as))
			var m des.Time
			for i, a := range as {
				if a.end > m {
					m = a.end
				}
				me[i] = m
			}
			g.acts[r], g.maxEnd[r] = as, me
		}
		if idxs := b.arr; len(idxs) > 0 {
			byRecv := func(i, j int) bool { return g.msgs[idxs[i]].Recv < g.msgs[idxs[j]].Recv }
			if !sort.SliceIsSorted(idxs, byRecv) {
				sort.SliceStable(idxs, byRecv)
			}
			g.arr[r], g.cursor[r] = idxs, len(idxs)-1
		}
	}
	return g
}

// containing returns the activity on rank r covering t under (start, end]
// semantics, preferring the latest-started one.
func (g *graph) containing(r int, t des.Time) (act, bool) {
	as := g.acts[r]
	i := sort.Search(len(as), func(i int) bool { return as[i].start >= t })
	if i == 0 {
		return act{}, false
	}
	a := as[i-1]
	if a.end >= t {
		return a, true
	}
	return act{}, false
}

// prevActivityEnd returns the latest activity end <= t on rank r, or 0.
func (g *graph) prevActivityEnd(r int, t des.Time) des.Time {
	as := g.acts[r]
	i := sort.Search(len(as), func(i int) bool { return as[i].start >= t })
	if i == 0 {
		return 0
	}
	e := g.maxEnd[r][i-1]
	if e > t {
		// Defensive: an overlapping activity ran past t (possible only in
		// native traces); fall back to the nearest non-overlapping end.
		e = as[i-1].end
		if e > t {
			return 0
		}
	}
	return e
}

// waitEndingAt returns a wait on rank r whose end is exactly t.
func (g *graph) waitEndingAt(r int, t des.Time) (act, bool) {
	as := g.acts[r]
	i := sort.Search(len(as), func(i int) bool { return as[i].start >= t })
	for j := i - 1; j >= 0 && j >= i-4; j-- {
		if a := as[j]; !a.compute && a.end == t {
			return a, true
		}
	}
	return act{}, false
}

// latestArrival returns the latest unused arrival on rank r with Recv <= t
// (and its Msgs index), advancing the rank's cursor.
func (g *graph) latestArrival(r int, t des.Time) (trace.Msg, int, bool) {
	idxs := g.arr[r]
	if len(idxs) == 0 {
		return trace.Msg{}, 0, false
	}
	cur := g.cursor[r]
	for cur >= 0 {
		mi := idxs[cur]
		m := g.msgs[mi]
		if m.Recv > t || g.used[mi] {
			cur--
			continue
		}
		g.cursor[r] = cur
		return m, mi, true
	}
	g.cursor[r] = -1
	return trace.Msg{}, 0, false
}

// maxWalkSteps bounds the backward walk; the partition argument makes the
// walk finite, this is the belt-and-braces guard against a malformed
// trace.
func maxWalkSteps(g *graph) int {
	n := len(g.msgs)
	//lint:unordered — commutative sum of lengths.
	for _, as := range g.acts {
		n += len(as)
	}
	return 4*n + 1024
}

// Analyze walks the causal graph backward from total (the run's reported
// end-to-end time in virtual nanoseconds) and returns the critical path
// with its attribution. ok is false when the trace cannot be attributed:
// nil collector, no compute spans (a run that never engaged the engine
// loops), or a malformed graph.
func Analyze(c *trace.Collector, total des.Time) (*Attribution, bool) {
	if c == nil || total <= 0 {
		return nil, false
	}
	g := buildGraph(c)
	if !g.hasCompute {
		return nil, false
	}
	// Anchor: the rank whose recorded activity ends last; the gap from
	// there to total is teardown, attributed on that rank.
	r, lastEnd := g.anchor, g.lastEnd

	a := &Attribution{Total: total}
	t := total
	atSend := false
	var cur *Seg

	// account books (from, t] on rank r into the current segment.
	// first..last are the compute iterations covered (hasIter).
	account := func(rank int, from des.Time, cat Category, first, last int, hasIter bool) {
		if cur == nil || cur.Rank != rank {
			a.Segs = append(a.Segs, Seg{Rank: rank, Start: from, End: t})
			cur = &a.Segs[len(a.Segs)-1]
		}
		cur.Start = from
		d := t - from
		cur.ByCat[cat] += d
		a.ByCat[cat] += d
		if hasIter {
			if !cur.HasIter {
				cur.FirstIter, cur.LastIter, cur.HasIter = first, last, true
			} else {
				cur.FirstIter = min(cur.FirstIter, first)
				cur.LastIter = max(cur.LastIter, last)
			}
		}
	}
	// cross books the edge of msg mi ending the current frontier as cat,
	// then moves the frontier to the sender's send instant.
	cross := func(mi int, cat Category) {
		m := g.msgs[mi]
		g.used[mi] = true
		account(r, m.Sent, cat, 0, 0, false)
		hop := &Hop{From: m.From, Kind: m.Kind, Bytes: m.Bytes, Sent: m.Sent, Recv: m.Recv}
		cur.Via = hop
		r, t = m.From, m.Sent
		cur = nil
		atSend = true
	}

	// Teardown first: the stretch past the last recorded event (stop
	// propagation, final protocol accounting) is protocol overhead.
	if lastEnd < t {
		account(r, lastEnd, CatProtocol, 0, 0, false)
		t = lastEnd
	}

	for steps, limit := 0, maxWalkSteps(g); t > 0; steps++ {
		if steps > limit {
			return nil, false
		}
		// 1. A wait ending exactly here, with its recorded cause: cross to
		// the sender of the message that opened the gate. The wait's whole
		// duration — including the releasing message's flight — is the
		// wait's category.
		if w, ok := g.waitEndingAt(r, t); ok {
			if w.cause >= 0 && w.cause < len(g.msgs) && !g.used[w.cause] {
				m := g.msgs[w.cause]
				if m.Sent < t && m.Recv >= w.start && m.Recv <= t {
					cross(w.cause, catForWait(w.wkind))
					continue
				}
			}
			// Cause unknown (native, recovery) or unusable: consume the
			// wait on this rank.
			account(r, w.start, catForWait(w.wkind), 0, 0, false)
			t = w.start
			atSend = false
			continue
		}
		// 2. At a send instant: a scheduler-context send (barrier release,
		// reduce result, relayed stop) is triggered by the arrival it
		// answers, at the same timestamp.
		if atSend {
			if m, mi, ok := g.latestArrival(r, t); ok && m.Recv == t && m.Sent < t {
				cross(mi, catForMsg(m.Kind))
				continue
			}
			atSend = false
		}
		// 3. An activity covering this instant: consume it back to its
		// start. Nothing interrupts a rank between the contiguous
		// iterations of a compute run, so the run goes in one step, from
		// the iteration t falls in back to the run's first.
		if act, ok := g.containing(r, t); ok && act.start < t {
			cat, last := CatCompute, act.iter
			if act.compute {
				last += int((t-act.start+act.stride-1)/act.stride) - 1
			} else {
				cat = catForWait(act.wkind)
			}
			account(r, act.start, cat, act.iter, last, act.compute)
			t = act.start
			atSend = false
			continue
		}
		// 4. A gap: bind to the latest preceding event on this rank —
		// its own previous activity (send-side packing between recorded
		// activities) or a message arrival (cross the edge).
		pe := g.prevActivityEnd(r, t)
		m, mi, haveArr := g.latestArrival(r, t)
		if haveArr && m.Recv >= pe && m.Recv > 0 {
			if m.Recv < t {
				account(r, m.Recv, CatProtocol, 0, 0, false)
				t = m.Recv
			}
			if m.Sent < t {
				cross(mi, catForMsg(m.Kind))
			} else {
				// Zero-latency edge: consume the message without moving
				// time (used-marking keeps the walk finite).
				g.used[mi] = true
				r, cur, atSend = m.From, nil, true
			}
			continue
		}
		if pe > 0 && pe < t {
			account(r, pe, CatBlockedSend, 0, 0, false)
			t = pe
			atSend = false
			continue
		}
		// Nothing precedes this point on this rank: the remainder is
		// setup / deployment.
		account(r, 0, CatProtocol, 0, 0, false)
		t = 0
	}

	// The walk ran backward; present the path forward.
	for i, j := 0, len(a.Segs)-1; i < j; i, j = i+1, j-1 {
		a.Segs[i], a.Segs[j] = a.Segs[j], a.Segs[i]
	}
	return a, true
}

// Summary renders the per-category attribution on one line, shares first,
// in the fixed category order.
func (a *Attribution) Summary() string {
	if a == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "total %s:", fmtSec(a.Total.Seconds()))
	for c := Category(0); c < NumCategories; c++ {
		if a.ByCat[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s %.1f%%", c, 100*a.Share(c))
	}
	return b.String()
}

// Listing renders the path as an annotated rank-hop listing, one line per
// rank-visit, newest last. maxLines > 0 elides the middle of long paths.
func (a *Attribution) Listing(maxLines int) string {
	if a == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d rank-visits, %s end to end\n", len(a.Segs), fmtSec(a.Total.Seconds()))
	lines := make([]string, 0, len(a.Segs))
	for _, s := range a.Segs {
		var parts []string
		for c := Category(0); c < NumCategories; c++ {
			if s.ByCat[c] > 0 {
				parts = append(parts, fmt.Sprintf("%s %s", c, fmtSec(s.ByCat[c].Seconds())))
			}
		}
		detail := strings.Join(parts, ", ")
		if s.HasIter {
			if s.FirstIter == s.LastIter {
				detail += fmt.Sprintf(" [iter %d]", s.FirstIter)
			} else {
				detail += fmt.Sprintf(" [iters %d..%d]", s.FirstIter, s.LastIter)
			}
		}
		via := ""
		if s.Via != nil {
			via = fmt.Sprintf("  ← %s from P%d (%dB, transit %s)",
				s.Via.Kind, s.Via.From, s.Via.Bytes, fmtSec((s.Via.Recv - s.Via.Sent).Seconds()))
		}
		lines = append(lines, fmt.Sprintf("  P%-2d %s .. %s  %s%s",
			s.Rank, fmtSec(s.Start.Seconds()), fmtSec(s.End.Seconds()), detail, via))
	}
	if maxLines > 2 && len(lines) > maxLines {
		head := maxLines / 2
		tail := maxLines - head
		elided := len(lines) - head - tail
		lines = append(append(lines[:head:head],
			fmt.Sprintf("  … %d rank-visits elided …", elided)),
			lines[len(lines)-tail:]...)
	}
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Explain renders a side-by-side category diff of two attributions: where
// cell A's time went versus cell B's, and which category dominates the
// difference.
func Explain(labelA string, a *Attribution, labelB string, b *Attribution) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %14s %14s %14s\n", "category", trim(labelA, 14), trim(labelB, 14), "Δ (B−A)")
	var worst Category
	var worstAbs des.Time = -1
	for c := Category(0); c < NumCategories; c++ {
		da, db := a.ByCat[c], b.ByCat[c]
		d := db - da
		fmt.Fprintf(&sb, "%-14s %8s %4.0f%% %8s %4.0f%% %14s\n",
			c, fmtSec(da.Seconds()), 100*a.Share(c), fmtSec(db.Seconds()), 100*b.Share(c), fmtSecSigned(d.Seconds()))
		abs := d
		if abs < 0 {
			abs = -abs
		}
		if abs > worstAbs {
			worst, worstAbs = c, abs
		}
	}
	fmt.Fprintf(&sb, "%-14s %8s %5s %8s %5s %14s\n",
		"total", fmtSec(a.Total.Seconds()), "", fmtSec(b.Total.Seconds()), "", fmtSecSigned((b.Total - a.Total).Seconds()))
	if a.Total != b.Total && worstAbs > 0 {
		gap := b.Total - a.Total
		slower, faster := labelB, labelA
		if gap < 0 {
			gap, slower, faster = -gap, labelA, labelB
		}
		fmt.Fprintf(&sb, "%s is %s slower than %s; the largest difference is %s (%s)\n",
			slower, fmtSec(gap.Seconds()), faster, worst, fmtSec(worstAbs.Seconds()))
	}
	return sb.String()
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fmtSec(s float64) string {
	switch {
	case s == 0:
		return "0s"
	case math.Abs(s) < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case math.Abs(s) < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

func fmtSecSigned(s float64) string {
	if s > 0 {
		return "+" + fmtSec(s)
	}
	if s < 0 {
		return "-" + fmtSec(-s)
	}
	return "0s"
}
