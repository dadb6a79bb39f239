package critpath_test

// Compute runs against the per-iteration trace they encode: the analyzer
// must attribute a recorded collector exactly as it attributes that
// collector's expansion (tests), and TRACE.md records what the encoding
// saves and which cheaper-looking encoding does not survive (table).

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/ladder"
	"aiac/internal/matrix"
	"aiac/internal/obs/critpath"
	"aiac/internal/trace"
)

// calls returns the AddSpan calls tr's spans encode, every run expanded, in
// the order the engine made them: a span is recorded at its end instant, and
// each rank's calls are in time order already.
func calls(tr *trace.Collector) []trace.Span {
	out := make([]trace.Span, 0, tr.Iterations())
	for _, s := range tr.Spans {
		for k := 0; k < s.Iters(); k++ {
			out = append(out, s.At(k))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].End < out[j].End })
	return out
}

// expanded is tr as the per-iteration collector held it: one span per
// AddSpan call, messages and waits shared.
func expanded(tr *trace.Collector) *trace.Collector {
	return &trace.Collector{Spans: calls(tr), Msgs: tr.Msgs, Waits: tr.Waits}
}

func mustAnalyze(t *testing.T, what string, tr *trace.Collector, total des.Time) *critpath.Attribution {
	t.Helper()
	a, ok := critpath.Analyze(tr, total)
	if !ok {
		t.Fatalf("%s: trace not attributable", what)
	}
	return a
}

// diffAttr names the first difference between two attributions.
func diffAttr(got, want *critpath.Attribution) string {
	if got.Total != want.Total || got.ByCat != want.ByCat {
		return fmt.Sprintf("totals %v %v, want %v %v", got.Total, got.ByCat, want.Total, want.ByCat)
	}
	if len(got.Segs) != len(want.Segs) {
		return fmt.Sprintf("%d segments, want %d", len(got.Segs), len(want.Segs))
	}
	for i := range want.Segs {
		g, w := got.Segs[i], want.Segs[i]
		if reflect.DeepEqual(g, w) {
			continue
		}
		at := fmt.Sprintf("segment %d (rank %d, %v .. %v)", i, w.Rank, w.Start, w.End)
		if g.FirstIter != w.FirstIter || g.LastIter != w.LastIter || g.HasIter != w.HasIter {
			return fmt.Sprintf("%s covers iterations %d..%d, want %d..%d", at, g.FirstIter, g.LastIter, w.FirstIter, w.LastIter)
		}
		var gv, wv critpath.Hop
		if g.Via != nil {
			gv = *g.Via
		}
		if w.Via != nil {
			wv = *w.Via
		}
		g.Via, w.Via = nil, nil
		return fmt.Sprintf("%s is %+v via %+v, want %+v via %+v", at, g, gv, w, wv)
	}
	return ""
}

// TestAnalyzeRunsEqualExpanded: on an async cell behind ADSL (long runs), an
// async cell through crash/restart epochs, a synchronous cell (no runs to
// speak of) and a hand-built path that enters a run mid-way, Analyze on the
// recorded runs equals Analyze on their expansion — totals, categories and
// every segment with its iteration range and Via.
func TestAnalyzeRunsEqualExpanded(t *testing.T) {
	cells := []matrix.Cell{
		{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear", Procs: 4, Size: nTest, Scenario: "static"},
		// Full size: the churn windows open 0.7 s into the run.
		{Env: "pm2", Mode: aiac.Async, Grid: "3site", Problem: "linear", Procs: 8, Size: 12000, Scenario: "node-churn"},
		{Env: "omniorb", Mode: aiac.Sync, Grid: "3site", Problem: "linear", Procs: 8, Size: nTest, Scenario: "static"},
	}
	for _, c := range cells {
		c := c
		c.Backend = "sim"
		t.Run(fmt.Sprintf("%s-%s-%s-%s", c.Env, c.Mode, c.Grid, c.Scenario), func(t *testing.T) {
			t.Parallel()
			spec := testSpec()
			spec.Sizes = []int{c.Size}
			// Uncapped: a converged async run ends on the coordinator's
			// stop, sent from a rank that is mid-run.
			spec.Linear.MaxIters = 3000000
			got, tr := analyzeCell(t, c, spec, 3)
			want := mustAnalyze(t, "expanded "+c.Key(), expanded(tr), got.Total)
			if d := diffAttr(got, want); d != "" {
				t.Errorf("%s: %d runs attribute differently from their %d iterations: %s", c.Key(), len(tr.Spans), tr.Iterations(), d)
			}
			if c.Mode == aiac.Async && tr.Iterations() < 4*len(tr.Spans) {
				t.Errorf("%s: %d iterations in %d spans — no runs recorded, the comparison shows nothing", c.Key(), tr.Iterations(), len(tr.Spans))
			}
			var onPath int
			for _, s := range got.Segs {
				if s.HasIter {
					onPath += s.LastIter - s.FirstIter + 1
				}
			}
			t.Logf("%s: %d iterations in %d spans, %d segments covering %d iterations", c.Key(), tr.Iterations(), len(tr.Spans), len(got.Segs), onPath)
		})
	}

	// Rank 0 computes ten 10 ms iterations back to back while its
	// scheduler context — a grace timer, not an arrival — sends the stop
	// that releases rank 1: the path crosses to rank 0 at the send instant,
	// inside iteration 4 (sent at 45 ms) or on the boundary that ends
	// iteration 3 (sent at 40 ms), and runs back to the start from there.
	for _, tc := range []struct {
		sent     des.Time
		lastIter int
	}{{45 * time.Millisecond, 4}, {40 * time.Millisecond, 3}} {
		ms := des.Time(time.Millisecond)
		tr := trace.New()
		for i := 0; i < 10; i++ {
			tr.AddSpan(0, des.Time(i)*10*ms, des.Time(i+1)*10*ms, trace.Compute, i)
		}
		tr.AddSpan(1, 0, 30*ms, trace.Compute, 0)
		stop := tr.AddMsg(trace.Msg{From: 0, To: 1, Sent: tc.sent, Recv: 47 * ms, Kind: trace.MsgStop, Bytes: 16})
		tr.AddWait(1, 30*ms, 47*ms, trace.WaitReduce, stop)
		tr.AddSpan(1, 47*ms, 120*ms, trace.Compute, 1)
		if len(tr.Spans) != 3 {
			t.Fatalf("hand-built trace holds %d spans, want rank 0's ten iterations as one run", len(tr.Spans))
		}
		got := mustAnalyze(t, "hand-built", tr, 125*ms)
		want := mustAnalyze(t, "hand-built expanded", expanded(tr), 125*ms)
		if d := diffAttr(got, want); d != "" {
			t.Errorf("stop sent at %v: %s", tc.sent, d)
		}
		first := got.Segs[0]
		if first.Rank != 0 || first.Start != 0 || first.End != tc.sent || !first.HasIter ||
			first.FirstIter != 0 || first.LastIter != tc.lastIter || first.ByCat[critpath.CatCompute] != tc.sent {
			t.Errorf("stop sent at %v: path starts with %+v, want rank 0 computing iterations 0..%d over (0, %v]", tc.sent, first, tc.lastIter, tc.sent)
		}
	}
}

// The rungs of TRACE.md: three ways to hold the compute timeline, each fed
// the same AddSpan stream.

// recorder is one rung: AddSpan as the engines call it, and — outside the
// timed replay — the records as the trace.Span view Analyze reads, with the
// bytes the recorder's own slice holds (its capacity, as the heap sees it).
type recorder interface {
	AddSpan(rank int, start, end des.Time, kind trace.Kind, iter int)
	view() (spans []trace.Span, bytes uintptr)
}

// span40 is trace.Span as it was before runs, 40 bytes.
type span40 struct {
	Rank       int
	Start, End des.Time
	Kind       trace.Kind
	Iter       int
}

// perIteration is the frozen baseline: the collector's AddSpan before
// spans became runs, one append per iteration.
type perIteration struct{ spans []span40 }

func (p *perIteration) AddSpan(rank int, start, end des.Time, kind trace.Kind, iter int) {
	if p == nil || end <= start {
		return
	}
	p.spans = append(p.spans, span40{Rank: rank, Start: start, End: end, Kind: kind, Iter: iter})
}

func (p *perIteration) view() ([]trace.Span, uintptr) {
	out := make([]trace.Span, len(p.spans))
	for i, s := range p.spans {
		out[i] = trace.Span{Rank: s.Rank, Start: s.Start, End: s.End, Kind: s.Kind, Iter: s.Iter, N: 1}
	}
	return out, uintptr(cap(p.spans)) * unsafe.Sizeof(span40{})
}

// contiguous is the rung not shipped: extend the rank's latest span whenever
// the next iteration starts where it ends, whatever its length. N counts the
// iterations, but a record no longer says where each one began.
type contiguous struct {
	spans []trace.Span
	last  []int
}

func (p *contiguous) AddSpan(rank int, start, end des.Time, kind trace.Kind, iter int) {
	if end <= start {
		return
	}
	for len(p.last) <= rank {
		p.last = append(p.last, 0)
	}
	if i := p.last[rank]; i > 0 {
		if s := &p.spans[i-1]; s.Kind == kind && s.End == start && s.Iter+s.N == iter {
			s.End, s.N = end, s.N+1
			return
		}
	}
	p.spans = append(p.spans, trace.Span{Rank: rank, Start: start, End: end, Kind: kind, Iter: iter, N: 1})
	p.last[rank] = len(p.spans)
}

func (p *contiguous) view() ([]trace.Span, uintptr) {
	return p.spans, uintptr(cap(p.spans)) * unsafe.Sizeof(trace.Span{})
}

// shipped is the collector itself.
type shipped struct{ *trace.Collector }

func (p shipped) view() ([]trace.Span, uintptr) {
	return p.Spans, uintptr(cap(p.Spans)) * unsafe.Sizeof(trace.Span{})
}

// rungs are TRACE.md's rows (its notes say what each is).
var rungs = []struct {
	name  string
	fresh func() recorder
}{
	{"per-iteration", func() recorder { return &perIteration{} }},
	{"contiguous-merge", func() recorder { return &contiguous{} }},
	{shippedRung, func() recorder { return shipped{trace.New()} }},
}

const shippedRung = "uniform-stride runs"

// fastest returns the shortest of three timings of f.
func fastest(f func()) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// traceSpec is what TestLadderTrace measures in TRACE.md.
func traceSpec() ladder.Spec {
	s := ladder.Spec{Doc: "TRACE.md", Regions: []string{"cells", "why"}}
	var names []string
	for _, rg := range rungs {
		names = append(names, rg.name)
	}
	s.Tables = append(s.Tables, ladder.Table{Anchor: "| rung | valid | note |", Key: []string{"rung"}, Rows: names, Cols: []string{"valid"}})
	for _, c := range refCells {
		s.Tables = append(s.Tables, ladder.Table{Anchor: "`" + cellName(c) + "`", Key: []string{"rung"}, Rows: names,
			Cols: []string{"valid", "records", "KB held", "record ns/iter", "Analyze ms"}})
	}
	return s
}

// TestLadderTrace checks TRACE.md and, under LADDER_GATE=1 or
// LADDER_WRITE=1, measures it on the three reference cells. Gates: the
// shipped rung valid on every cell and holding at least 50x fewer records
// than the baseline on the adsl cell; the rung recorded as not shipped
// still invalid, or the table's account of it is out of date.
func TestLadderTrace(t *testing.T) {
	doc := ladder.Open(t, traceSpec())
	if !ladder.Gate(t) {
		return
	}
	runs, err := refRuns()
	if err != nil {
		t.Fatal(err)
	}
	invalid := make([]bool, len(rungs))
	var cellList strings.Builder
	var base, shippedRecords int
	for j, run := range runs {
		c, tr := refCells[j], run.tr
		stream := calls(tr)
		fmt.Fprintf(&cellList, "- `%s`: %d AddSpan calls (%d of them compute iterations), %d messages, %d waits\n",
			cellName(c), len(stream), tr.Iterations(), len(tr.Msgs), len(tr.Waits))
		tab := doc.Table("`" + cellName(c) + "`")
		var want *critpath.Attribution
		for i, rg := range rungs {
			var rec recorder
			recordNS := float64(fastest(func() {
				rec = rg.fresh()
				for _, s := range stream {
					rec.AddSpan(s.Rank, s.Start, s.End, s.Kind, s.Iter)
				}
			})) / float64(len(stream))
			spans, bytes := rec.view()
			coll := &trace.Collector{Spans: spans, Msgs: tr.Msgs, Waits: tr.Waits}
			var got *critpath.Attribution
			var ok bool
			analyzeMilli := float64(fastest(func() { got, ok = critpath.Analyze(coll, run.attr.Total) })) / 1e6
			why := ""
			switch {
			case !ok:
				why = "not attributable"
			case i == 0:
				want = got
			default:
				why = diffAttr(got, want)
			}
			invalid[i] = invalid[i] || why != ""
			switch {
			case rg.name == "contiguous-merge" && j == 0:
				if why == "" {
					t.Errorf("%s attributes %s like the baseline: the table records it as the rung that does not", rg.name, cellName(c))
				}
				doc.Region("why", why+".")
			case rg.name == "contiguous-merge":
			case why != "":
				t.Errorf("%s invalid on %s: %s", rg.name, cellName(c), why)
			}
			if j == 0 && i == 0 {
				base = len(spans)
			} else if j == 0 && rg.name == shippedRung {
				shippedRecords = len(spans)
			}
			tab.Setf(rg.name, "valid", "%d", ladder.Bit(why == ""))
			tab.Setf(rg.name, "records", "%d", len(spans))
			tab.Setf(rg.name, "KB held", "%.0f", float64(bytes)/1024)
			tab.Setf(rg.name, "record ns/iter", "%.1f", recordNS)
			tab.Setf(rg.name, "Analyze ms", "%.2f", analyzeMilli)
		}
	}
	for i, rg := range rungs {
		doc.Table("| rung | valid | note |").Setf(rg.name, "valid", "%d", ladder.Bit(!invalid[i]))
	}
	if shippedRecords*50 > base {
		t.Errorf("%s holds %d records for the baseline's %d on %s; want at least 50x fewer", shippedRung, shippedRecords, base, cellName(refCells[0]))
	}
	doc.Region("cells", cellList.String())
	doc.Finish()
}
