package trace_test

import (
	"testing"

	"aiac/internal/aiac"
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

func TestGanttUnchangedByRuns(t *testing.T) {
	spec := matrix.DefaultSpec()
	spec.Sizes = []int{600}
	spec.Linear.MaxIters = 12000
	c := matrix.Cell{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear",
		Procs: 4, Size: 600, Scenario: "static", Backend: "sim-fast"}
	tr := trace.New()
	if _, err := matrix.RunCellOnce(c, spec, 0, 0, 0, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Iterations() < 10*len(tr.Spans) {
		t.Fatalf("%d iterations in %d spans: the cell recorded no runs to speak of", tr.Iterations(), len(tr.Spans))
	}
	if got := tr.Gantt(64); got != ganttAsyncADSL {
		t.Errorf("gantt changed:\n%s\nwant:\n%s", got, ganttAsyncADSL)
	}
}
