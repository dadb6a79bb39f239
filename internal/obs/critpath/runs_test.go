package critpath_test

// Compute runs against the per-iteration trace they encode: the analyzer
// must attribute a recorded collector exactly as it attributes that
// collector's expansion (tests), and TRACE.md records what the encoding
// saves and which cheaper-looking encoding does not survive (table).

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"aiac/internal/aiac"
	"aiac/internal/des"
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
		c.Backend = "sim-fast"
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

var rungs = []struct {
	name, note string
	fresh      func() recorder
}{
	{"per-iteration", "frozen baseline: the collector before runs — one 40-byte span appended per iteration",
		func() recorder { return &perIteration{} }},
	{"contiguous-merge", "not shipped: merges back-to-back iterations of any length, so a record keeps their count but not their boundaries",
		func() recorder { return &contiguous{} }},
	{shippedRung, "shipped as trace.Collector.AddSpan: merges back-to-back iterations of one length, so a record is its iterations exactly",
		func() recorder { return shipped{trace.New()} }},
}

const shippedRung = "uniform-stride runs"

// tableCells are the benchmark's reference cells at full size: the
// adsl-spin, grid-dynamics and sync-exchange workloads' own.
var tableCells = []matrix.Cell{
	{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear", Procs: 4, Size: 12000, Scenario: "static", Backend: "sim-fast"},
	{Env: "pm2", Mode: aiac.Async, Grid: "3site", Problem: "linear", Procs: 8, Size: 12000, Scenario: "node-churn", Backend: "sim-fast"},
	{Env: "omniorb", Mode: aiac.Sync, Grid: "3site", Problem: "linear", Procs: 64, Size: 19200, Scenario: "static", Backend: "sim-fast"},
}

func cellName(c matrix.Cell) string {
	name := fmt.Sprintf("%s/%s/%s/p%d/n%d", c.Env, c.Mode, c.Grid, c.Procs, c.Size)
	if c.Scenario != "static" {
		name += "/" + c.Scenario
	}
	return name
}

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

// TestTraceTable is the measured table generator and CI gate, skipped
// unless asked for (it runs three full-size cells):
//
//	TRACE_GATE=1 go test -run TestTraceTable -v ./internal/obs/critpath
//	TRACE_WRITE=TRACE.md go test -run TestTraceTable ./internal/obs/critpath
//
// TRACE_WRITE is a path relative to the repository root (or absolute).
// Gates: the shipped rung valid on every cell and holding at least 50x
// fewer records than the baseline on the adsl cell; the rung recorded as
// not shipped still invalid, or the table's account of it is out of date.
func TestTraceTable(t *testing.T) {
	write := os.Getenv("TRACE_WRITE")
	if os.Getenv("TRACE_GATE") == "" && write == "" {
		t.Skip("set TRACE_GATE=1 or TRACE_WRITE=<path> to run the measured trace table")
	}
	spec := matrix.DefaultSpec()
	spec.Linear = matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000, Seed: 20040426}

	type cellRow struct {
		valid                  bool
		why                    string
		records                int
		bytes                  uintptr
		recordNS, analyzeMilli float64
	}
	rows := make([][]cellRow, len(rungs))
	var cellList strings.Builder
	for _, c := range tableCells {
		tr := trace.New()
		spec.Sizes = []int{c.Size}
		r, err := matrix.RunCellOnce(c, spec, 0, 20040426, 0, tr)
		if err != nil {
			t.Fatalf("%s: %v", cellName(c), err)
		}
		total := critpath.TotalFromSeconds(r.TimeSec)
		stream := calls(tr)
		fmt.Fprintf(&cellList, "- `%s`: %d AddSpan calls (%d of them compute iterations), %d messages, %d waits\n",
			cellName(c), len(stream), tr.Iterations(), len(tr.Msgs), len(tr.Waits))

		var want *critpath.Attribution
		for i, rg := range rungs {
			var row cellRow
			var rec recorder
			row.recordNS = float64(fastest(func() {
				rec = rg.fresh()
				for _, s := range stream {
					rec.AddSpan(s.Rank, s.Start, s.End, s.Kind, s.Iter)
				}
			})) / float64(len(stream))
			spans, bytes := rec.view()
			row.records, row.bytes = len(spans), bytes
			coll := &trace.Collector{Spans: spans, Msgs: tr.Msgs, Waits: tr.Waits}
			var got *critpath.Attribution
			var ok bool
			row.analyzeMilli = float64(fastest(func() { got, ok = critpath.Analyze(coll, total) })) / 1e6
			switch {
			case !ok:
				row.why = "not attributable"
			case i == 0:
				want, row.valid = got, true
			default:
				row.why = diffAttr(got, want)
				row.valid = row.why == ""
			}
			rows[i] = append(rows[i], row)
		}
	}

	bit := map[bool]int{true: 1}
	var table strings.Builder
	table.WriteString("| rung | valid | note |\n|---|---|---|\n")
	for i, rg := range rungs {
		valid := true
		for _, row := range rows[i] {
			valid = valid && row.valid
		}
		fmt.Fprintf(&table, "| %s | %d | %s |\n", rg.name, bit[valid], rg.note)
	}
	for j, c := range tableCells {
		fmt.Fprintf(&table, "\n`%s`\n\n| rung | valid | records | KB held | record ns/iter | Analyze ms |\n|---|---|---|---|---|---|\n", cellName(c))
		for i, rg := range rungs {
			row := rows[i][j]
			fmt.Fprintf(&table, "| %s | %d | %d | %.0f | %.1f | %.2f |\n", rg.name, bit[row.valid], row.records, float64(row.bytes)/1024, row.recordNS, row.analyzeMilli)
		}
	}
	t.Logf("trace table:\n%s", table.String())

	for i, rg := range rungs {
		for j, row := range rows[i] {
			switch {
			case rg.name == "contiguous-merge":
				if j == 0 && row.valid {
					t.Errorf("%s attributes %s like the baseline: the table records it as the rung that does not", rg.name, cellName(tableCells[j]))
				}
			case !row.valid:
				t.Errorf("%s invalid on %s: %s", rg.name, cellName(tableCells[j]), row.why)
			}
		}
	}
	base, shipped := rows[0][0], rows[len(rungs)-1][0]
	if shipped.records*50 > base.records {
		t.Errorf("%s holds %d records for the baseline's %d on %s; want at least 50x fewer", shippedRung, shipped.records, base.records, cellName(tableCells[0]))
	}
	if write == "" {
		return
	}
	var why string
	if row := rows[1][0]; !row.valid {
		why = row.why
	}
	doc := fmt.Sprintf(traceDoc, cellList.String(), table.String(), base.records/shipped.records, why)
	if !filepath.IsAbs(write) {
		write = "../../../" + write
	}
	if err := os.WriteFile(write, []byte(doc), 0o644); err != nil {
		t.Fatalf("writing %s: %v", write, err)
	}
	t.Logf("wrote %s", write)
}

const traceDoc = `# Compute timeline — measured

Generated by:

    TRACE_WRITE=TRACE.md go test -run TestTraceTable ./internal/obs/critpath

Each row is one way to hold a cell's compute/idle timeline, fed the same
stream: the AddSpan calls of one traced repetition of a benchmark reference
cell (seed 20040426), in the order the engine made them.

%[1]s
"valid" = 1 means that at generation time critpath.Analyze, reading the
rung's records, returned an Attribution reflect.DeepEqual to the one it
returns from the frozen per-iteration baseline on every cell above: total,
per-category times, and every segment's bounds, iteration range and Via.
"records" is len(Spans); "KB held" the capacity of the span slice the rung
ends up with (append-grown, as in a real run); "record ns/iter" the time to
replay the stream into a fresh recorder, per AddSpan call; "Analyze ms" one
critpath.Analyze over the result. Timings are the fastest of three.

%[2]s
Shipped: uniform-stride runs, as trace.Collector.AddSpan
(internal/trace/trace.go) — the only representation compiled into the
package; the baseline and the rung not shipped live in
internal/obs/critpath/runs_test.go. On the adsl cell it holds %[3]dx fewer
records than the baseline.

Why contiguous-merge is not the one. It needs even fewer records — a rank
behind ADSL computes for seconds without a gap — and every duration-only
view (Gantt, BusyIdle, the per-category totals) reads it correctly. But a
merged stretch of unequal iterations no longer says where each began, so
when the critical path enters one mid-way (a message sent from a computing
rank) the iteration it lands in cannot be recovered, and the segment's
iteration range comes out wrong. At generation time, on the adsl cell:
%[4]s.

Equal stride is the cheapest condition under which a record still is its
iterations: start, length and count give back every boundary, so expansion
reproduces the AddSpan sequence exactly (internal/trace
TestRunsExpandToInput, FuzzSpanRuns) and the analyzer can step over a whole
run at once (TestAnalyzeRunsEqualExpanded).

The sync cell is the control: its ranks alternate one compute span with one
idle span, nothing is back to back, and all three rungs hold the same
records.
`
