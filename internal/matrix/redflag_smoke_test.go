package matrix

import (
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/report"
)

// TestSmokeBaselineZeroFlags pins the committed smoke baseline clean: every
// cell of BENCH_smoke.json must carry an empty red-flag column. The
// detectors are tuned to fire on order-of-magnitude pathologies only, never
// on the noisy-but-healthy trajectories of the smoke matrix — if this test
// fails after a detector change, the detector got too eager; if it fails
// after an engine change, convergence behaviour regressed.
func TestSmokeBaselineZeroFlags(t *testing.T) {
	set, err := report.ReadFile("../../BENCH_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Results {
		if r.Flags != "" {
			t.Errorf("%s: committed smoke baseline carries flags %q, want none", r.Key(), r.Flags)
		}
	}
}

// TestSmokeCellsReportZeroFlags re-runs the smoke cells that historically
// sat closest to the detector thresholds — the asynchronous local-grid
// solves, whose early transient swings across orders of magnitude — and
// asserts the detectors stay quiet on them live, not just in the committed
// file.
func TestSmokeCellsReportZeroFlags(t *testing.T) {
	spec := DefaultSpec()
	cells := []Cell{
		{Env: "pm2", Mode: aiac.Async, Grid: "local", Problem: "linear", Procs: 8, Size: 1500},
		{Env: "madmpi", Mode: aiac.Async, Grid: "local", Problem: "linear", Procs: 8, Size: 1500},
		{Env: "pm2", Mode: aiac.Async, Grid: "local", Problem: "linear", Procs: 8, Size: 1500, Scenario: "flaky-adsl"},
		{Env: "mpi", Mode: aiac.Sync, Grid: "local", Problem: "linear", Procs: 8, Size: 1500, Scenario: "flaky-adsl"},
	}
	for _, c := range cells {
		c := c
		t.Run(c.Key(), func(t *testing.T) {
			t.Parallel()
			r, err := RunCellOnce(c, spec, 0, 0, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Converged {
				t.Fatalf("%s did not converge", c.Key())
			}
			if r.Flags != "" {
				t.Errorf("%s: flags %q on a healthy smoke cell, want none", c.Key(), r.Flags)
			}
		})
	}
}
