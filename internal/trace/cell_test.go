package trace_test

import (
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/matrix"
	"aiac/internal/trace"
)

// ganttAsyncADSL is the chart of the cell below as the per-iteration
// collector rendered it, before spans became runs. The duration-only views
// must not see the difference.
const ganttAsyncADSL = `time: 0 .. 215.007448ms   ('#' compute, '.' idle)
P0  |             #######################################            | busy 126ms idle 0s
P1  |                  ####################                          | busy 67ms idle 0s
P2  |                  ###############                               | busy 47ms idle 0s
P3  |                          ######################################| busy 125ms idle 0s
50 messages delivered
`

// asyncADSLTrace is the trace of the cell below, a spinning async cell
// behind ADSL capped at 12 000 iterations a rank.
func asyncADSLTrace(t *testing.T) *trace.Collector {
	spec := matrix.DefaultSpec()
	spec.Sizes = []int{600}
	spec.Linear.MaxIters = 12000
	c := matrix.Cell{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear",
		Procs: 4, Size: 600, Scenario: "static", Backend: "sim"}
	tr := trace.New()
	if _, err := matrix.RunCellOnce(c, spec, 0, 0, 0, tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGanttUnchangedByRuns(t *testing.T) {
	tr := asyncADSLTrace(t)
	if tr.Iterations() < 10*len(tr.Spans) {
		t.Fatalf("%d iterations in %d spans: the cell recorded no runs to speak of", tr.Iterations(), len(tr.Spans))
	}
	if got := tr.Gantt(64); got != ganttAsyncADSL {
		t.Errorf("gantt changed:\n%s\nwant:\n%s", got, ganttAsyncADSL)
	}
}

// A spinning async cell behind ADSL is where the per-iteration trace cost
// 300 MB: its ranks must record runs, not iterations.
func TestAsyncADSLTraceRecordsRuns(t *testing.T) {
	tr := asyncADSLTrace(t)
	if iters := tr.Iterations(); iters < 40000 || iters < 50*len(tr.Spans) {
		t.Errorf("%d iterations in %d spans; want at most one span per 50 iterations", iters, len(tr.Spans))
	}
}

// The trace under every traced iteration (TRACE.md): an iteration that
// continues its rank's run — same stride, next number, no gap — extends the
// latest span in place and allocates nothing, with other ranks' runs
// interleaved as a real cell interleaves them.
func TestAddSpanExtendAllocs(t *testing.T) {
	c := trace.New()
	var at [4]des.Time
	var iter [4]int
	step := func() {
		for r := range at {
			stride := des.Time(100 + r)
			c.AddSpan(r, at[r], at[r]+stride, trace.Compute, iter[r])
			at[r] += stride
			iter[r]++
		}
	}
	step() // appends each rank's first span
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("AddSpan on the extend path allocates %.2f per 4 calls; want 0", n)
	}
	if len(c.Spans) != 4 || c.Iterations() != 4*102 {
		t.Errorf("%d spans holding %d iterations; want 4 holding %d", len(c.Spans), c.Iterations(), 4*102)
	}
}
