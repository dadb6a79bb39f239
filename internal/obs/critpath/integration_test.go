package critpath_test

// Real-cell integration of the critical-path analyzer: the acceptance
// contrast (sync/adsl is sync-wait-bound, async/adsl is compute-bound).

import (
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/matrix"
	"aiac/internal/obs/critpath"
	"aiac/internal/trace"
)

const nTest = 600

func testSpec() matrix.Spec {
	spec := matrix.DefaultSpec()
	spec.Sizes = []int{nTest}
	// Cap the asynchronous ADSL spins, as the engine golden test does: a
	// capped run attributes the same way as a converged one.
	spec.Linear.MaxIters = 12000
	return spec
}

func analyzeCell(t *testing.T, c matrix.Cell, spec matrix.Spec, seed int64) (*critpath.Attribution, *trace.Collector) {
	t.Helper()
	tr := trace.New()
	r, err := matrix.RunCellOnce(c, spec, 0, seed, 0, tr)
	if err != nil {
		t.Fatalf("%s: %v", c.Key(), err)
	}
	a, ok := critpath.Analyze(tr, critpath.TotalFromSeconds(r.TimeSec))
	if !ok {
		t.Fatalf("%s: trace not attributable (%d spans, %d msgs, %d waits)",
			c.Key(), len(tr.Spans), len(tr.Msgs), len(tr.Waits))
	}
	if a.Total != critpath.TotalFromSeconds(r.TimeSec) {
		t.Fatalf("%s: attributed %v, reported %v", c.Key(), a.Total, critpath.TotalFromSeconds(r.TimeSec))
	}
	return a, tr
}

// TestSyncVsAsyncContrast is the acceptance criterion: behind the ADSL
// uplink the synchronous cell's critical path is mostly blocking exchange
// (sync-wait share above 40%), the asynchronous cell's is mostly compute
// (sync-wait share below 10%).
func TestSyncVsAsyncContrast(t *testing.T) {
	syncCell := matrix.Cell{Env: "mpi", Mode: aiac.Sync, Grid: "adsl", Problem: "linear",
		Procs: 8, Size: nTest, Scenario: "static", Backend: "sim"}
	asyncCell := matrix.Cell{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear",
		Procs: 8, Size: nTest, Scenario: "static", Backend: "sim"}

	// The async cell needs enough iterations that the one-time startup
	// barrier (~90ms of ADSL round trips) stops dominating a small run;
	// at the default problem sizes it is a fraction of a percent.
	asyncSpec := testSpec()
	asyncSpec.Linear.MaxIters = 200000

	syncA, _ := analyzeCell(t, syncCell, testSpec(), 0)
	asyncA, _ := analyzeCell(t, asyncCell, asyncSpec, 0)
	t.Logf("sync/adsl:  %s", syncA.Summary())
	t.Logf("async/adsl: %s", asyncA.Summary())

	if share := syncA.Share(critpath.CatSyncWait); share <= 0.4 {
		t.Errorf("sync/adsl sync-wait share = %.1f%%, want > 40%%", 100*share)
	}
	if share := asyncA.Share(critpath.CatSyncWait); share >= 0.1 {
		t.Errorf("async/adsl sync-wait share = %.1f%%, want < 10%%", 100*share)
	}
}

// TestIdleFractionConsistency is the aiacbench -metrics cross-check: the
// idle fractions reported per rank must be derivable from the same
// BusyIdle span accounting, and the envcore waits must be covered by the
// engine's idle spans (the coarse and fine views of the same blocking).
func TestIdleFractionConsistency(t *testing.T) {
	c := matrix.Cell{Env: "mpi", Mode: aiac.Sync, Grid: "3site", Problem: "linear",
		Procs: 8, Size: nTest, Scenario: "static", Backend: "sim"}
	tr := trace.New()
	if _, err := matrix.RunCellOnce(c, testSpec(), 0, 0, 0, tr); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		busy, idle := tr.BusyIdle(r)
		total := busy + idle
		if total == 0 {
			t.Fatalf("rank %d: no spans", r)
		}
		want := float64(idle) / float64(total)
		if got := tr.IdleFraction(r); got != want {
			t.Errorf("rank %d: IdleFraction = %v, BusyIdle-derived = %v", r, got, want)
		}
		// Exchange and reduce waits happen inside the engine's idle spans,
		// so per rank their sum cannot exceed the recorded idle time.
		var waits int64
		for _, w := range tr.Waits {
			if w.Rank == r && (w.Kind == trace.WaitExchange || w.Kind == trace.WaitReduce) {
				waits += int64(w.End - w.Start)
			}
		}
		if waits > int64(idle) {
			t.Errorf("rank %d: exchange+reduce waits %d ns exceed idle %d ns", r, waits, int64(idle))
		}
	}
}
